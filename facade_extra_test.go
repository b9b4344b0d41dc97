package nwhy

import (
	"math"
	"reflect"
	"testing"
)

func TestCollapseEdgesFacade(t *testing.T) {
	hg := FromSets([][]uint32{{0, 1}, {0, 1}, {2}}, 3)
	collapsed, classes := hg.CollapseEdges()
	if collapsed.NumEdges() != 2 {
		t.Fatalf("collapsed edges = %d", collapsed.NumEdges())
	}
	if !reflect.DeepEqual(classes, [][]uint32{{0, 1}, {2}}) {
		t.Fatalf("classes = %v", classes)
	}
}

func TestCollapseNodesFacade(t *testing.T) {
	hg := FromSets([][]uint32{{0, 1, 2}}, 3)
	collapsed, classes := hg.CollapseNodes()
	if collapsed.NumNodes() != 1 || len(classes) != 1 {
		t.Fatalf("nodes = %d classes = %v", collapsed.NumNodes(), classes)
	}
}

func TestCollapseNodesAndEdgesFacade(t *testing.T) {
	hg := FromSets([][]uint32{{0, 1}, {0, 1}}, 2)
	collapsed, _ := hg.CollapseNodesAndEdges()
	if collapsed.NumEdges() != 1 || collapsed.NumNodes() != 1 {
		t.Fatalf("shape %d/%d", collapsed.NumEdges(), collapsed.NumNodes())
	}
}

func TestDistsFacade(t *testing.T) {
	hg := paperExample()
	esd := hg.EdgeSizeDist()
	if !reflect.DeepEqual(esd, []int{0, 0, 0, 3, 1}) {
		t.Fatalf("EdgeSizeDist = %v", esd)
	}
	ndd := hg.NodeDegreeDist()
	if !reflect.DeepEqual(ndd, []int{0, 5, 4}) {
		t.Fatalf("NodeDegreeDist = %v", ndd)
	}
}

func TestRestrictFacade(t *testing.T) {
	hg := paperExample()
	sub := hg.RestrictToEdges([]uint32{0, 2})
	if sub.NumEdges() != 2 {
		t.Fatal("RestrictToEdges wrong")
	}
	sub2 := hg.RestrictToNodes([]uint32{0, 1, 2})
	if sub2.NumNodes() != 3 {
		t.Fatal("RestrictToNodes wrong")
	}
}

func TestToplexifyFacade(t *testing.T) {
	hg := FromSets([][]uint32{{0, 1, 2}, {0, 1}}, 3)
	tp := hg.Toplexify()
	if tp.NumEdges() != 1 {
		t.Fatalf("toplexified edges = %d", tp.NumEdges())
	}
}

func TestBFSDirectionOptimizingVariant(t *testing.T) {
	hg := paperExample()
	want := hg.BFS(0, BFSTopDown)
	got := hg.BFS(0, BFSDirectionOptimizing)
	if !reflect.DeepEqual(got.EdgeLevel, want.EdgeLevel) || !reflect.DeepEqual(got.NodeLevel, want.NodeLevel) {
		t.Fatal("direction-optimizing HyperBFS disagrees")
	}
}

func TestSConnectedComponentsFacade(t *testing.T) {
	hg := paperExample()
	direct := hg.SConnectedComponents(1)
	viaGraph := hg.SLineGraph(1, true).SConnectedComponents()
	if !reflect.DeepEqual(direct, viaGraph) {
		t.Fatalf("direct = %v, via line graph = %v", direct, viaGraph)
	}
	if len(direct) != hg.NumEdges() {
		t.Fatal("direct labels length wrong")
	}
}

func TestEnsembleQueueFacade(t *testing.T) {
	hg := FromSets([][]uint32{{0, 1, 2, 3}, {1, 2, 3, 4}, {2, 3, 4, 5}}, 6)
	for _, adjoin := range []bool{false, true} {
		byS := hg.SLineGraphEnsembleQueue([]int{1, 2, 3}, adjoin)
		for s, lg := range byS {
			want := hg.SLineGraph(s, true)
			if !reflect.DeepEqual(lg.Pairs(), want.Pairs()) {
				t.Fatalf("queue ensemble (adjoin=%v) s=%d differs", adjoin, s)
			}
		}
	}
}

func TestHyperTreeFacade(t *testing.T) {
	hg := paperExample()
	tr := hg.HyperTree(0)
	if !tr.Verify(hg.Hypergraph()) {
		t.Fatal("hypertree invariants violated")
	}
	path := tr.HyperPathToEdge(2)
	if len(path) != 5 || path[0].ID != 0 || path[4].ID != 2 {
		t.Fatalf("hyperpath = %v", path)
	}
}

func TestWeightedSLineGraphFacade(t *testing.T) {
	hg := FromSets([][]uint32{
		{0, 1, 2, 3},
		{1, 2, 3, 4},
		{4, 5},
	}, 6)
	wl := hg.SLineGraphWeighted(1)
	if wl.Strength(0, 1) != 3 {
		t.Fatalf("Strength = %d", wl.Strength(0, 1))
	}
	if d := wl.SDistanceWeighted(0, 2); math.Abs(d-(1.0/3.0+1.0)) > 1e-9 {
		t.Fatalf("weighted distance = %v", d)
	}
	// Plain s-metrics still available through the embedded handle.
	if wl.SDistance(0, 2) != 2 {
		t.Fatalf("hop distance = %d", wl.SDistance(0, 2))
	}
}
