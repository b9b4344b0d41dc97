package nwhy_test

import (
	"fmt"

	"nwhy"
)

// The running example of the paper's figures: four hyperedges over nine
// hypernodes, whose 1-line graph is the cycle e0-e1-e2-e3.
func paperExample() *nwhy.NWHypergraph {
	return nwhy.FromSets([][]uint32{
		{0, 1, 2},
		{2, 3, 4},
		{4, 5, 6},
		{0, 6, 7, 8},
	}, 9)
}

func ExampleNew() {
	// NWHypergraph(row, col, weight) of the Python API: parallel arrays of
	// hyperedge IDs and hypernode IDs.
	hg, _ := nwhy.New(
		[]uint32{0, 0, 0, 1, 1, 1},
		[]uint32{0, 1, 2, 0, 1, 2},
		nil,
	)
	fmt.Println(hg.NumEdges(), hg.NumNodes(), hg.NumIncidences())
	// Output: 2 3 6
}

func ExampleNWHypergraph_SLineGraph() {
	hg := paperExample()
	lg := hg.SLineGraph(1, true)
	fmt.Println("s-degree of e0:", lg.SDegree(0))
	fmt.Println("s-neighbors of e0:", lg.SNeighbors(0))
	fmt.Println("1-line edges:", lg.NumEdges())
	// Output:
	// s-degree of e0: 2
	// s-neighbors of e0: [1 3]
	// 1-line edges: 4
}

func ExampleSLineGraph_SDistance() {
	hg := paperExample()
	lg := hg.SLineGraph(1, true)
	// e0 and e2 share no hypernode, but a 1-walk of length 2 connects them.
	fmt.Println(lg.SDistance(0, 2))
	fmt.Println(lg.SPath(0, 2))
	// Output:
	// 2
	// [0 1 2]
}

func ExampleNWHypergraph_ConnectedComponents() {
	hg := nwhy.FromSets([][]uint32{{0, 1}, {1, 2}, {4, 5}}, 6)
	cc := hg.ConnectedComponents(nwhy.CCHyper)
	fmt.Println("components:", cc.NumComponents())
	fmt.Println("e0 and e1 together:", cc.EdgeComp[0] == cc.EdgeComp[1])
	fmt.Println("e0 and e2 together:", cc.EdgeComp[0] == cc.EdgeComp[2])
	// Output:
	// components: 3
	// e0 and e1 together: true
	// e0 and e2 together: false
}

func ExampleNWHypergraph_BFS() {
	hg := paperExample()
	r := hg.BFS(0, nwhy.BFSTopDown)
	// Bipartite hops: e0=0, its nodes=1, overlapping edges=2, ...
	fmt.Println(r.EdgeLevel)
	// Output: [0 2 4 2]
}

func ExampleNWHypergraph_Toplexes() {
	hg := nwhy.FromSets([][]uint32{
		{0, 1, 2}, // maximal
		{0, 1},    // contained in the first
		{3},       // maximal
	}, 4)
	fmt.Println(hg.Toplexes())
	// Output: [0 2]
}

func ExampleNWHypergraph_Adjoin() {
	hg := paperExample()
	a := hg.Adjoin()
	// One shared index set: hyperedges 0..3, hypernodes 4..12 (Figure 3).
	fmt.Println(a.NumVertices(), a.NumRealEdges, a.NumRealNodes)
	fmt.Println("shared ID of hypernode 0:", a.NodeID(0))
	// Output:
	// 13 4 9
	// shared ID of hypernode 0: 4
}

func ExampleNWHypergraph_SLineGraphWith() {
	hg := paperExample()
	// The paper's Algorithm 1 (queue-based hashmap) on the adjoin
	// representation — identical output to every other construction.
	o := nwhy.PresetAlgorithm1
	o.UseAdjoin = true
	lg := hg.SLineGraphWith(1, true, o)
	fmt.Println(lg.NumEdges())
	// Output: 4
}

func ExampleNWHypergraph_SLineGraphWeighted() {
	hg := nwhy.FromSets([][]uint32{
		{0, 1, 2, 3},
		{1, 2, 3, 4},
	}, 5)
	wl := hg.SLineGraphWeighted(1)
	fmt.Println("overlap strength:", wl.Strength(0, 1))
	// Output: overlap strength: 3
}

func ExampleNWHypergraph_CollapseEdges() {
	hg := nwhy.FromSets([][]uint32{{0, 1}, {0, 1}, {2}}, 3)
	collapsed, classes := hg.CollapseEdges()
	fmt.Println("edges after collapse:", collapsed.NumEdges())
	fmt.Println("classes:", classes)
	// Output:
	// edges after collapse: 2
	// classes: [[0 1] [2]]
}

func ExampleNWHypergraph_SConnectedComponents() {
	hg := paperExample()
	// s-components without materializing the line graph.
	fmt.Println(hg.SConnectedComponents(1))
	fmt.Println(hg.SConnectedComponents(2))
	// Output:
	// [0 0 0 0]
	// [0 1 2 3]
}

func ExampleNWHypergraph_Stats() {
	st := paperExample().Stats()
	fmt.Printf("|V|=%d |E|=%d max|e|=%d\n", st.NumNodes, st.NumEdges, st.MaxEdgeDegree)
	// Output: |V|=9 |E|=4 max|e|=4
}
