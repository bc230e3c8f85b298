package experiments

import "expandergap/internal/congest"

// Scale selects experiment sizes: Small for tests, Full for the recorded
// EXPERIMENTS.md tables.
type Scale int

const (
	// Small keeps every experiment under a second or two.
	Small Scale = iota + 1
	// Full is the EXPERIMENTS.md configuration.
	Full
)

// Params bundles per-experiment size configuration.
type Params struct {
	DecompSizes []int
	AppSizes    []int
	GapSizes    []int
	EpsList     []float64
	Eps         float64
	Weights     []int64
	Seed        int64
	// Obs, when non-nil, receives the phase-attributed accounting of the
	// experiments that route it into their congest.Config (E2b, E4, E10,
	// E15). It never changes results.
	Obs *congest.Observer
}

// DefaultParams returns the parameters for a scale.
func DefaultParams(s Scale) Params {
	switch s {
	case Full:
		return Params{
			DecompSizes: []int{64, 144, 256},
			AppSizes:    []int{36, 64, 100},
			GapSizes:    []int{16, 36, 64, 144},
			EpsList:     []float64{0.1, 0.2, 0.4},
			Eps:         0.25,
			Weights:     []int64{10, 100, 1000},
			Seed:        2022,
		}
	default:
		return Params{
			DecompSizes: []int{36, 64},
			AppSizes:    []int{36, 49},
			GapSizes:    []int{16, 36},
			EpsList:     []float64{0.2, 0.4},
			Eps:         0.25,
			Weights:     []int64{10, 100},
			Seed:        2022,
		}
	}
}

// Named runs one experiment by ID with the given parameters. Unknown IDs
// return a zero Outcome with a failing check.
func Named(id string, p Params) Outcome {
	switch id {
	case "E1":
		return E1Decomposition(p.DecompSizes, p.EpsList, p.Seed)
	case "E2":
		return E2ClusterConductance(p.DecompSizes, p.Eps, p.Seed)
	case "E2b":
		return E2Distributed(p.DecompSizes, 0.4, p.Seed, p.Obs)
	case "E3":
		return E3HighDegree(p.DecompSizes, p.Eps, p.Seed)
	case "E4":
		return E4WalkRouting(p.DecompSizes, p.Eps, p.Seed, p.Obs)
	case "E5":
		return E5MaxIS(p.AppSizes, p.EpsList, p.Seed)
	case "E6":
		return E6PlanarMCM(p.AppSizes, p.Eps, p.Seed)
	case "E7":
		return E7MWM(p.AppSizes, p.Weights, 0.3, p.Seed)
	case "E8":
		return E8CorrClust(p.AppSizes, 0.3, p.Seed)
	case "E9":
		return E9PropertyTesting(p.AppSizes, 0.1, p.Seed)
	case "E10":
		return E10LDD(p.DecompSizes, p.EpsList, p.Seed, p.Obs)
	case "E11":
		return E11Separators(p.DecompSizes, p.Seed)
	case "E12":
		return E12LocalCongestGap(p.GapSizes, 0.2, p.Seed)
	case "E13":
		return E13MixingTime(p.Seed)
	case "E14":
		return E14HypercubeTightness(p.Seed)
	case "E15":
		return E15RoundScaling(p.GapSizes, 0.3, p.Seed, p.Obs)
	case "E16":
		return E16DecomposerComparison(p.AppSizes, 0.4, p.Seed)
	default:
		return Outcome{
			Table:  &Table{ID: id, Title: "unknown experiment"},
			Checks: []Check{{Name: "experiment exists", OK: false, Info: id}},
		}
	}
}

// IDs lists all experiment identifiers in order.
func IDs() []string {
	return []string{"E1", "E2", "E2b", "E3", "E4", "E5", "E6", "E7", "E8", "E9", "E10", "E11", "E12", "E13", "E14", "E15", "E16"}
}
