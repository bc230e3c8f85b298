package conductance

// FilterProducts is the number of products Fiedler.Filter runs on an
// n-vertex piece at φ, for the external benchmarks.
func FilterProducts(n int, phi float64) int { return filterProducts(n, filterCutoff(phi)) }
