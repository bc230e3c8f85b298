package main

import (
	"testing"

	"expandergap/internal/expander"
)

// TestHistogram covers the bucket boundaries, including a largest cluster
// whose size rounds up to the next power of two (400 → 512), whose bucket
// lies above the size itself.
func TestHistogram(t *testing.T) {
	const header = "cluster-size histogram (by power-of-two bucket):\n"
	for _, tc := range []struct {
		name  string
		sizes []int
		want  string
	}{
		{"no clusters", nil, ""},
		{"one cluster rounding up", []int{400}, "  ~ 512 vertices: 1 clusters\n"},
		{"largest rounds up", []int{100, 1, 1}, "  ~   1 vertices: 2 clusters\n  ~ 128 vertices: 1 clusters\n"},
		{"largest rounds down", []int{90, 1}, "  ~   1 vertices: 1 clusters\n  ~  64 vertices: 1 clusters\n"},
		{"mixed", []int{1, 1, 2, 3, 5, 8, 12}, "  ~   1 vertices: 2 clusters\n  ~   2 vertices: 1 clusters\n" +
			"  ~   4 vertices: 2 clusters\n  ~   8 vertices: 1 clusters\n  ~  16 vertices: 1 clusters\n"},
	} {
		dec := &expander.Decomposition{}
		for _, s := range tc.sizes {
			dec.Clusters = append(dec.Clusters, make([]int, s))
		}
		if got := histogram(dec); got != header+tc.want {
			t.Errorf("%s: histogram(%v) =\n%s\nwant\n%s", tc.name, tc.sizes, got, header+tc.want)
		}
	}
}
