package graph

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

// csrDigest returns the SHA-256 of g's binary encoding: every CSR array,
// the edge list, weights, signs and the cached statistics.
func csrDigest(t *testing.T, g *Graph) string {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteBinary(&buf, g); err != nil {
		t.Fatalf("WriteBinary: %v", err)
	}
	sum := sha256.Sum256(buf.Bytes())
	return hex.EncodeToString(sum[:])
}

// mixedBuilder feeds a Builder shuffled edges of a triangulated grid with
// duplicates in both endpoint orders. Plain, weighted and signed additions
// mix (kinds selects which of the annotated ones may appear), so repeated
// edges overwrite one another's weights and signs. It returns the builder
// and the rng so callers can keep adding.
func mixedBuilder(kinds string) (*Builder, *rand.Rand) {
	rng := rand.New(rand.NewSource(41))
	edges := TriangulatedGrid(6, 7).Edges()
	for i := 0; i < 25; i++ {
		e := edges[rng.Intn(len(edges))]
		edges = append(edges, Edge{U: e.V, V: e.U})
	}
	rng.Shuffle(len(edges), func(i, j int) { edges[i], edges[j] = edges[j], edges[i] })
	b := NewBuilder(45) // three isolated vertices past the grid
	for _, e := range edges {
		addMixed(b, rng, kinds, e.U, e.V)
	}
	return b, rng
}

func addMixed(b *Builder, rng *rand.Rand, kinds string, u, v int) {
	switch k := kinds[rng.Intn(len(kinds))]; k {
	case 'p':
		b.AddEdge(u, v)
	case 'w':
		b.AddWeightedEdge(u, v, 1+rng.Int63n(20))
	case 's':
		b.AddSignedEdge(u, v, int8(2*rng.Intn(2)-1))
	default:
		panic(fmt.Sprintf("unknown kind %q", k))
	}
}

// TestCSRGolden pins the binary encoding of every construction path the
// package offers. It is the independent oracle for CSR assembly: the digests
// were recorded from the pre-refactor Builder, StreamingBuilder and parallel
// generators, so any change to row order, edge indices, annotations or
// cached statistics shows up here even when all paths change together.
func TestCSRGolden(t *testing.T) {
	rng := func(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }
	sortedText := func() string {
		var sb strings.Builder
		if err := WriteEdgeList(&sb, WithRandomWeights(TriangulatedGrid(5, 6), 30, rng(3))); err != nil {
			t.Fatalf("WriteEdgeList: %v", err)
		}
		return sb.String()
	}
	read := func(text string) *Graph {
		g, err := ReadEdgeList(strings.NewReader(text))
		if err != nil {
			t.Fatalf("ReadEdgeList: %v", err)
		}
		return g
	}
	cases := []struct {
		name  string
		build func() *Graph
		want  string
	}{
		{"builder-mixed", func() *Graph { b, _ := mixedBuilder("pws"); return b.Graph() }, "1dc6a0080887ae364e5aa545198a24fbe8182135abf7baa1ea5c4a4103924cf7"},
		{"builder-weighted", func() *Graph { b, _ := mixedBuilder("ppw"); return b.Graph() }, "f53f50e46fd2ef548867ab6ee7f81c60c9ae8178ce0a3b68da89061d80d0aa56"},
		{"builder-signed", func() *Graph { b, _ := mixedBuilder("pss"); return b.Graph() }, "37ad4c1be9745d34bb7f7fbbefca58a73f8a28f6147d12613b4b6d3122a565c8"},
		{"builder-regraph", func() *Graph {
			b, r := mixedBuilder("pws")
			b.Graph()
			// More additions after a first Graph call: overwrites of
			// existing edges and edges to the isolated vertices.
			for i := 0; i < 30; i++ {
				u, v := r.Intn(45), r.Intn(45)
				if u != v {
					addMixed(b, r, "pws", u, v)
				}
			}
			b.AddEdge(1, 0) // a plain re-add resets the weight to 1
			return b.Graph()
		}, "acd07e041a9aa7acc49d68413832cf4e70ac67ca894d745e17b247882421a7aa"},
		{"grid", func() *Graph { return Grid(9, 11) }, "f7a1e8aa9eb5037f17884d4c298ec34a1536c687020c1b32b4b07ae80f30eb47"},
		{"trigrid", func() *Graph { return TriangulatedGrid(8, 9) }, "3bfe07ea4e90afc63eb85ede2033857864160c9d837eaa7be2e1bb41b1778005"},
		{"random-weights", func() *Graph { return WithRandomWeights(Torus(6, 7), 100, rng(5)) }, "826e5d7c64f6b8055fc4c7a7dd6ada314775fc14420b0817abfc91cf9dfe2dd1"},
		{"random-signs", func() *Graph { return WithRandomSigns(Hypercube(6), 0.4, rng(6)) }, "d56218ccf33387b00e40db7e633ffb678f077ab81c9b3990d1e907f6b4de67f5"},
		{"erdos-renyi", func() *Graph { return ErdosRenyi(120, 0.06, rng(7)) }, "40823b960624d21555f6cc653b228f0a639a75536b756424f5fee50445d4be0c"},
		{"maximal-planar", func() *Graph { return RandomMaximalPlanar(400, rng(8)) }, "38da2235192c0e4196f766bca2c01224e67a4c17df8db85d9e5b5a8dd535afff"},
		{"planar", func() *Graph { return RandomPlanar(400, 0.55, rng(9)) }, "507694d07add1b90fa35bbc5a58ed162f4c79bebfe2d341eb5cf40c0d08bc9a9"},
		{"er-stream-w1", func() *Graph { return ErdosRenyiStream(3000, 0.004, 10, 1) }, "01ed3acc6222c01a45aa8a62b7a95b5eedbd51bf8e691fd32b9aba21b6857c90"},
		{"er-stream-w4", func() *Graph { return ErdosRenyiStream(3000, 0.004, 10, 4) }, "01ed3acc6222c01a45aa8a62b7a95b5eedbd51bf8e691fd32b9aba21b6857c90"},
		{"maximal-planar-stream-w1", func() *Graph { return RandomMaximalPlanarStream(25000, rng(11), 1) }, "c32d5ebb31eef792c9c8e4df859fce04c5c503f363e365a646f640b0255121e6"},
		{"maximal-planar-stream-w4", func() *Graph { return RandomMaximalPlanarStream(25000, rng(11), 4) }, "c32d5ebb31eef792c9c8e4df859fce04c5c503f363e365a646f640b0255121e6"},
		{"planar-stream-w1", func() *Graph { return RandomPlanarStream(25000, 0.6, rng(12), 1) }, "c539e8553ab8ff98a8887d6ae8a6388290f11f33ec84e0740311ff97e3448096"},
		{"planar-stream-w4", func() *Graph { return RandomPlanarStream(25000, 0.6, rng(12), 4) }, "c539e8553ab8ff98a8887d6ae8a6388290f11f33ec84e0740311ff97e3448096"},
		{"text-sorted", func() *Graph { return read(sortedText()) }, "e6e0c533e6e87aeb247ec1a89c84cbc647812a3d333516347b5e0876f1025533"},
		{"text-unsorted-duplicates", func() *Graph {
			// Reversed lines, reversed endpoints and repeated edges with new
			// weights: the last occurrence of an edge wins.
			lines := strings.Split(strings.TrimSpace(sortedText()), "\n")
			header, body := lines[0], lines[1:]
			var out []string
			r := rng(13)
			for i := len(body) - 1; i >= 0; i-- {
				var u, v, w int
				fmt.Sscanf(body[i], "%d %d %d", &u, &v, &w)
				out = append(out, fmt.Sprintf("%d %d %d", v, u, w))
				if r.Intn(4) == 0 {
					out = append(out, fmt.Sprintf("%d %d %d", u, v, 1+r.Intn(30)))
				}
			}
			var n, m int
			fmt.Sscanf(header, "%d %d", &n, &m)
			header = strings.Replace(header, fmt.Sprintf("%d %d", n, m), fmt.Sprintf("%d %d", n, len(out)), 1)
			return read(header + "\n" + strings.Join(out, "\n") + "\n")
		}, "abb1590b16cc10e5b49ae51780ce8a023816fe31321100d6e598027c31ddeb8d"},
		{"view-materialize", func() *Graph {
			g := WithRandomWeights(RandomMaximalPlanar(200, rng(14)), 50, rng(15))
			var verts []int
			for v := 0; v < g.N(); v++ {
				if v%5 != 2 {
					verts = append(verts, v)
				}
			}
			sub, _ := g.InduceFiltered(verts, func(idx int) bool { return idx%7 == 3 }).Materialize()
			return sub
		}, "3cb677de7e8a1ea0ec56559e87ed645925c38cfece13ece6f434797d053c7a92"},
		{"overlay-compact", func() *Graph {
			base := WithRandomWeights(Grid(12, 12), 9, rng(16))
			ops, err := GenerateChurn(base, 120, 17)
			if err != nil {
				t.Fatalf("GenerateChurn: %v", err)
			}
			ov := NewOverlay(base)
			if _, err := ov.ApplyAll(ops); err != nil {
				t.Fatalf("ApplyAll: %v", err)
			}
			v := ov.AddVertex()
			if err := ov.AddWeightedEdge(v, 5, 4); err != nil {
				t.Fatalf("AddWeightedEdge: %v", err)
			}
			if err := ov.DeleteVertex(40); err != nil {
				t.Fatalf("DeleteVertex: %v", err)
			}
			g, err := ov.Compact()
			if err != nil {
				t.Fatalf("Compact: %v", err)
			}
			return g
		}, "966ac6806f605b00a53e23c603c131e1b4461be6cf923b022131665c3c49fe0b"},
		{"n0", func() *Graph { return NewBuilder(0).Graph() }, "1b03eada3ac356c032e00eea5f187f75932bd2070296f399f9b29cf1df4b8678"},
		{"edgeless", func() *Graph { return NewBuilder(7).Graph() }, "24960c36830c8150439c0584d0d8df1c396749a188ad7618bf0eb590040b2418"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := csrDigest(t, tc.build()); got != tc.want {
				t.Errorf("digest = %s, want %s", got, tc.want)
			}
		})
	}
}
