// Package maxis implements Theorem 1.2 of the paper: a (1-ε)-approximate
// maximum independent set on H-minor-free networks in the CONGEST model.
//
// The algorithm is §3.1 verbatim: run the framework with parameter
// ε' = ε/(2d+1) (d = core.PlanarDensity, the planar edge-density bound), let
// every cluster leader compute a maximum independent set of its gathered
// cluster topology, disseminate membership bits, and resolve conflicts on
// inter-cluster edges by dropping one endpoint (the set Z of the paper;
// |Z| ≤ ε'·n ≤ ε·α(G)).
//
// Luby's classic distributed maximal independent set is included as the
// (1/Δ)-approximation baseline the paper compares against.
//
// When a congest.Observer is attached, the framework stages appear as
// named phases; this package adds "conflict-resolution" (the §3.1 Z-set
// announcement round) and the Luby baseline reports under "luby".
package maxis
