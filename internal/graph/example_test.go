package graph_test

import (
	"fmt"

	"expandergap/internal/graph"
)

func ExampleBuilder() {
	b := graph.NewBuilder(4)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(2, 3)
	b.AddEdge(3, 0)
	g := b.Graph()
	fmt.Println(g)
	fmt.Println("diameter:", g.Diameter())
	// Output:
	// Graph(n=4, m=4, Δ=2)
	// diameter: 2
}

func ExampleGrid() {
	g := graph.Grid(3, 4)
	fmt.Println("vertices:", g.N(), "edges:", g.M())
	fmt.Println("connected:", g.Connected())
	// Output:
	// vertices: 12 edges: 17
	// connected: true
}

func ExampleGraph_BiconnectedComponents() {
	// Two triangles sharing vertex 2.
	b := graph.NewBuilder(5)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(0, 2)
	b.AddEdge(2, 3)
	b.AddEdge(3, 4)
	b.AddEdge(2, 4)
	g := b.Graph()
	fmt.Println("blocks:", len(g.BiconnectedComponents()))
	// Output:
	// blocks: 2
}

func ExampleGraph_Degeneracy() {
	d, _ := graph.Complete(5).Degeneracy()
	fmt.Println("K5 degeneracy:", d)
	// Output:
	// K5 degeneracy: 4
}
