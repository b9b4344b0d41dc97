package core

import (
	"reflect"
	"testing"
	"testing/quick"
)

func TestCollapseEdgesMergesDuplicates(t *testing.T) {
	h := FromSets([][]uint32{
		{0, 1},
		{2, 3},
		{0, 1}, // dup of e0
		{4},
		{0, 1}, // dup of e0
		{2, 3}, // dup of e1
	}, 5)
	r := tCollapseEdges(h)
	if r.H.NumEdges() != 3 {
		t.Fatalf("collapsed to %d edges, want 3", r.H.NumEdges())
	}
	wantClasses := [][]uint32{{0, 2, 4}, {1, 5}, {3}}
	if !reflect.DeepEqual(r.Classes, wantClasses) {
		t.Fatalf("classes = %v, want %v", r.Classes, wantClasses)
	}
	if !reflect.DeepEqual(r.H.EdgeIncidence(0), []uint32{0, 1}) {
		t.Fatalf("representative 0 incidence = %v", r.H.EdgeIncidence(0))
	}
	if err := r.H.Validate(teng); err != nil {
		t.Fatal(err)
	}
}

func TestCollapseEdgesNoDuplicatesIdentity(t *testing.T) {
	h := paperHypergraph()
	r := tCollapseEdges(h)
	if r.H.NumEdges() != 4 || len(r.Classes) != 4 {
		t.Fatal("collapse changed a duplicate-free hypergraph")
	}
	if !r.H.Edges.Equal(h.Edges) {
		t.Fatal("edge structure changed")
	}
}

func TestCollapseNodesMergesDuplicateMemberships(t *testing.T) {
	// Nodes 0,1,2 all belong exactly to e0; nodes 3,4 to e0 and e1.
	h := FromSets([][]uint32{
		{0, 1, 2, 3, 4},
		{3, 4},
	}, 5)
	r := tCollapseNodes(h)
	if r.H.NumNodes() != 2 {
		t.Fatalf("collapsed to %d nodes, want 2", r.H.NumNodes())
	}
	if !reflect.DeepEqual(r.Classes, [][]uint32{{0, 1, 2}, {3, 4}}) {
		t.Fatalf("classes = %v", r.Classes)
	}
	// e0 now has 2 members (one per class), e1 has 1.
	if r.H.EdgeDegree(0) != 2 || r.H.EdgeDegree(1) != 1 {
		t.Fatalf("degrees = %d, %d", r.H.EdgeDegree(0), r.H.EdgeDegree(1))
	}
}

func TestCollapseNodesAndEdges(t *testing.T) {
	// After node collapse, e0 and e2 become identical.
	h := FromSets([][]uint32{
		{0, 1},
		{2},
		{0, 1},
	}, 3)
	r, nodeClasses := tCollapseNodesAndEdges(h)
	if len(nodeClasses) != 2 { // {0,1} merge (same membership {e0,e2}), {2}
		t.Fatalf("node classes = %v", nodeClasses)
	}
	if r.H.NumEdges() != 2 {
		t.Fatalf("edges after double collapse = %d", r.H.NumEdges())
	}
}

func TestCollapseIdempotent(t *testing.T) {
	f := func(seed int64) bool {
		h := randomHypergraph(20, 8, 3, seed) // small node space: duplicates likely
		once := tCollapseEdges(h)
		twice := tCollapseEdges(once.H)
		return twice.H.NumEdges() == once.H.NumEdges()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestCollapsePreservesDistinctSets(t *testing.T) {
	f := func(seed int64) bool {
		h := randomHypergraph(25, 8, 3, seed)
		r := tCollapseEdges(h)
		// Every original hyperedge's set must equal its representative's.
		for k, class := range r.Classes {
			for _, orig := range class {
				if !rowsEqual(h.Edges.Row(int(orig)), r.H.Edges.Row(k)) {
					return false
				}
			}
		}
		// Distinct set count must match.
		distinct := map[string]bool{}
		for e := 0; e < h.NumEdges(); e++ {
			key := ""
			for _, v := range h.Edges.Row(e) {
				key += string(rune(v)) + ","
			}
			distinct[key] = true
		}
		return len(distinct) == r.H.NumEdges()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestEdgeSizeDist(t *testing.T) {
	h := paperHypergraph() // sizes 3,3,3,4
	dist := EdgeSizeDist(h)
	want := []int{0, 0, 0, 3, 1}
	if !reflect.DeepEqual(dist, want) {
		t.Fatalf("EdgeSizeDist = %v, want %v", dist, want)
	}
}

func TestNodeDegreeDist(t *testing.T) {
	h := paperHypergraph() // nodes 0,2,4,6 have degree 2; the other five degree 1
	dist := NodeDegreeDist(h)
	want := []int{0, 5, 4}
	if !reflect.DeepEqual(dist, want) {
		t.Fatalf("NodeDegreeDist = %v, want %v", dist, want)
	}
}

func TestDegreeDistSumsMatch(t *testing.T) {
	f := func(seed int64) bool {
		h := randomHypergraph(20, 15, 5, seed)
		total := 0
		for d, c := range EdgeSizeDist(h) {
			total += d * c
		}
		return total == h.NumIncidences()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestRestrictToEdges(t *testing.T) {
	h := paperHypergraph()
	sub, _ := RestrictToEdges(teng, h, []uint32{3, 1})
	if sub.NumEdges() != 2 || sub.NumNodes() != 9 {
		t.Fatalf("shape %d/%d", sub.NumEdges(), sub.NumNodes())
	}
	if !reflect.DeepEqual(sub.EdgeIncidence(0), []uint32{0, 6, 7, 8}) {
		t.Fatalf("first restricted edge = %v (should be old e3)", sub.EdgeIncidence(0))
	}
	if !reflect.DeepEqual(sub.EdgeIncidence(1), []uint32{2, 3, 4}) {
		t.Fatalf("second restricted edge = %v (should be old e1)", sub.EdgeIncidence(1))
	}
}

func TestRestrictToNodes(t *testing.T) {
	h := paperHypergraph()
	// Keep only nodes 0 and 2 (renumbered 0 and 1).
	sub, _ := RestrictToNodes(teng, h, []uint32{0, 2})
	if sub.NumNodes() != 2 || sub.NumEdges() != 4 {
		t.Fatalf("shape %d/%d", sub.NumEdges(), sub.NumNodes())
	}
	// e0 was {0,1,2}: keeps {0, 2} -> renumbered {0, 1}.
	if !reflect.DeepEqual(sub.EdgeIncidence(0), []uint32{0, 1}) {
		t.Fatalf("e0 restricted = %v", sub.EdgeIncidence(0))
	}
	// e2 was {4,5,6}: loses everything.
	if sub.EdgeDegree(2) != 0 {
		t.Fatalf("e2 should be empty, has %d", sub.EdgeDegree(2))
	}
}

func TestToplexify(t *testing.T) {
	h := FromSets([][]uint32{{0, 1, 2}, {0, 1}, {3}, {3}}, 4)
	tp := tToplexify(h)
	if tp.NumEdges() != 2 {
		t.Fatalf("toplexified to %d edges, want 2 ({0,1,2} and one {3})", tp.NumEdges())
	}
	if !reflect.DeepEqual(tp.EdgeIncidence(0), []uint32{0, 1, 2}) {
		t.Fatalf("first toplex = %v", tp.EdgeIncidence(0))
	}
}

func TestHyperBFSDirectionOptimizingAgrees(t *testing.T) {
	f := func(seed int64) bool {
		h := randomHypergraph(40, 50, 6, seed)
		want := hyperBFSOracle(h, 0)
		got := tHyperBFSDirectionOptimizing(h, 0)
		return reflect.DeepEqual(got.EdgeLevel, want.EdgeLevel) &&
			reflect.DeepEqual(got.NodeLevel, want.NodeLevel)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestHyperBFSDirectionOptimizingDenseInput(t *testing.T) {
	// One hyperedge containing everything forces a giant first frontier
	// (the bottom-up trigger); correctness must hold either way.
	sets := [][]uint32{make([]uint32, 500)}
	for i := range sets[0] {
		sets[0][i] = uint32(i)
	}
	for i := 0; i < 50; i++ {
		sets = append(sets, []uint32{uint32(i * 10), uint32(i*10 + 1)})
	}
	h := FromSets(sets, 500)
	want := hyperBFSOracle(h, 0)
	got := tHyperBFSDirectionOptimizing(h, 0)
	if !reflect.DeepEqual(got.EdgeLevel, want.EdgeLevel) || !reflect.DeepEqual(got.NodeLevel, want.NodeLevel) {
		t.Fatal("direction-optimizing BFS differs on dense input")
	}
}
