// Package expander implements (ε, φ) expander decompositions, the engine of
// the paper's framework (Theorems 2.1, 2.2 and 2.6).
//
// An (ε, φ) expander decomposition removes at most an ε fraction of the
// edges so that every remaining connected component has conductance at least
// φ. Two constructions are provided:
//
//   - Decompose: a recursive sparse-cut decomposition. It plays
//     the role of the Chang–Saranurak FOCS'20 construction, which this
//     repository substitutes (see DESIGN.md): the framework only consumes
//     the (ε, φ) contract, which this decomposer meets with
//     φ = ε/Θ(log m), matching the existential bound φ = Ω(ε/log n).
//     Each piece's cut search is seeded by hashing the piece's vertex set,
//     and the pieces share a removed-edge bitmap that is race-free by
//     ownership, so Options.Workers only sizes the goroutine pool the
//     independent pieces fan out to: the output is the same at every
//     Workers (DESIGN.md §3.12). DecomposeIncremental re-runs the same
//     recursion on the clusters a mutation batch broke.
//
//   - DistributedDecompose: a genuine message-passing construction run on
//     the CONGEST simulator. It combines Miller–Peng–Xu exponential-shift
//     clustering (to bound inter-cluster edges) with leader-local expander
//     refinement of each low-diameter cluster, mirroring how the paper's
//     framework lets cluster leaders do heavy local computation.
//
// Decomposition.Verify checks the contract against the definitions of
// Section 2 using exact conductance for small clusters and, otherwise, a
// Cheeger estimate from 300 power iterations that is not a certificate.
//
// When a congest.Observer is attached to the Config, DistributedDecompose
// reports its stage structure as the named phases "mpx" and "refine"
// (refinement is leader-local and contributes zero rounds).
package expander
