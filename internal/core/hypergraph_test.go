package core

import (
	"math/rand"
	"reflect"
	"testing"

	"nwhy/internal/sparse"
)

// paperHypergraph returns the running example used throughout the paper's
// figures: hyperedges e0={0,1,2}, e1={2,3,4}, e2={4,5,6}, e3={0,6,7,8}.
func paperHypergraph() *Hypergraph {
	return FromSets([][]uint32{
		{0, 1, 2},
		{2, 3, 4},
		{4, 5, 6},
		{0, 6, 7, 8},
	}, 9)
}

// randomHypergraph generates a random hypergraph with ne hyperedges over nv
// hypernodes, each hyperedge of size 1..maxSize.
func randomHypergraph(ne, nv, maxSize int, seed int64) *Hypergraph {
	rng := rand.New(rand.NewSource(seed))
	sets := make([][]uint32, ne)
	for e := range sets {
		size := 1 + rng.Intn(maxSize)
		seen := map[uint32]bool{}
		for len(seen) < size {
			seen[uint32(rng.Intn(nv))] = true
		}
		for v := range seen {
			sets[e] = append(sets[e], v)
		}
	}
	return FromSets(sets, nv)
}

func TestPaperHypergraphShape(t *testing.T) {
	h := paperHypergraph()
	if h.NumEdges() != 4 || h.NumNodes() != 9 || h.NumIncidences() != 13 {
		t.Fatalf("shape: %d edges, %d nodes, %d incidences", h.NumEdges(), h.NumNodes(), h.NumIncidences())
	}
	if err := h.Validate(teng); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(h.EdgeIncidence(3), []uint32{0, 6, 7, 8}) {
		t.Fatalf("e3 = %v", h.EdgeIncidence(3))
	}
	if !reflect.DeepEqual(h.NodeIncidence(4), []uint32{1, 2}) {
		t.Fatalf("node 4 incidence = %v", h.NodeIncidence(4))
	}
	if h.EdgeDegree(3) != 4 || h.NodeDegree(0) != 2 {
		t.Fatal("degrees wrong")
	}
}

func TestDualSwapsRoles(t *testing.T) {
	h := paperHypergraph()
	d := h.Dual()
	if d.NumEdges() != 9 || d.NumNodes() != 4 {
		t.Fatalf("dual shape %dx%d", d.NumEdges(), d.NumNodes())
	}
	if !reflect.DeepEqual(d.EdgeIncidence(0), []uint32{0, 3}) {
		t.Fatalf("dual e0 = %v", d.EdgeIncidence(0))
	}
	dd := d.Dual()
	if dd.Edges != h.Edges || dd.Nodes != h.Nodes {
		t.Fatal("dual of dual should be the original structure")
	}
}

func TestFromSetsDedupsRepeatedMembers(t *testing.T) {
	h := FromSets([][]uint32{{1, 1, 2}}, 3)
	if !reflect.DeepEqual(h.EdgeIncidence(0), []uint32{1, 2}) {
		t.Fatalf("incidence = %v", h.EdgeIncidence(0))
	}
}

func TestFromSetsInfersNodeCount(t *testing.T) {
	h := FromSets([][]uint32{{5}, {2, 7}}, -1)
	if h.NumNodes() != 8 {
		t.Fatalf("NumNodes = %d, want 8", h.NumNodes())
	}
}

func TestEdgeRangeIteratesAll(t *testing.T) {
	h := paperHypergraph()
	total := 0
	count := 0
	for e, nbrs := range h.EdgeRange() {
		if e != count {
			t.Fatalf("edge IDs out of order: %d at position %d", e, count)
		}
		count++
		total += len(nbrs)
	}
	if count != 4 || total != 13 {
		t.Fatalf("EdgeRange visited %d edges, %d incidences", count, total)
	}
}

func TestEdgeRangeEarlyBreak(t *testing.T) {
	h := paperHypergraph()
	count := 0
	for range h.EdgeRange() {
		count++
		if count == 2 {
			break
		}
	}
	if count != 2 {
		t.Fatalf("early break failed: %d", count)
	}
}

func TestNodeRangeIteratesAll(t *testing.T) {
	h := paperHypergraph()
	count := 0
	for _, nbrs := range h.NodeRange() {
		count += len(nbrs)
	}
	if count != 13 {
		t.Fatalf("NodeRange incidences = %d", count)
	}
}

func TestEdgeNeighbors(t *testing.T) {
	h := paperHypergraph()
	// e0 shares node 2 with e1 and node 0 with e3.
	if got := h.EdgeNeighbors(0); !reflect.DeepEqual(got, []uint32{1, 3}) {
		t.Fatalf("EdgeNeighbors(0) = %v", got)
	}
	// e2 shares node 4 with e1 and node 6 with e3.
	if got := h.EdgeNeighbors(2); !reflect.DeepEqual(got, []uint32{1, 3}) {
		t.Fatalf("EdgeNeighbors(2) = %v", got)
	}
}

func TestNodeNeighbors(t *testing.T) {
	h := paperHypergraph()
	// Node 0 is in e0 {0,1,2} and e3 {0,6,7,8}: neighbors 1,2,6,7,8.
	if got := h.NodeNeighbors(0); !reflect.DeepEqual(got, []uint32{1, 2, 6, 7, 8}) {
		t.Fatalf("NodeNeighbors(0) = %v", got)
	}
}

func TestComputeStatsPaperExample(t *testing.T) {
	s := ComputeStats(paperHypergraph())
	if s.NumNodes != 9 || s.NumEdges != 4 {
		t.Fatalf("stats %+v", s)
	}
	if s.MaxEdgeDegree != 4 || s.MaxNodeDegree != 2 {
		t.Fatalf("max degrees %+v", s)
	}
	if s.AvgEdgeDegree != 13.0/4 || s.AvgNodeDegree != 13.0/9 {
		t.Fatalf("avg degrees %+v", s)
	}
}

func TestValidateCatchesMismatchedPair(t *testing.T) {
	h := paperHypergraph()
	bad := &Hypergraph{Edges: h.Edges, Nodes: h.Nodes.Transpose()} // wrong shape
	if bad.Validate(teng) == nil {
		t.Fatal("Validate accepted dimension mismatch")
	}
	other := FromSets([][]uint32{{0}, {1, 2}, {3}, {4}}, 9)
	bad2 := &Hypergraph{Edges: h.Edges, Nodes: other.Nodes}
	if bad2.Validate(teng) == nil {
		t.Fatal("Validate accepted non-transpose pair")
	}
}

func TestEmptyHypergraph(t *testing.T) {
	h := FromSets(nil, 0)
	if h.NumEdges() != 0 || h.NumNodes() != 0 {
		t.Fatal("empty hypergraph not empty")
	}
	if err := h.Validate(teng); err != nil {
		t.Fatal(err)
	}
	s := ComputeStats(h)
	if s.AvgEdgeDegree != 0 || s.MaxNodeDegree != 0 {
		t.Fatalf("empty stats %+v", s)
	}
}

func TestSingletonAndIsolated(t *testing.T) {
	// Hyperedge {3} over 5 nodes: nodes 0,1,2,4 isolated.
	h := FromSets([][]uint32{{3}}, 5)
	if h.NodeDegree(0) != 0 || h.NodeDegree(3) != 1 {
		t.Fatal("degrees wrong with isolated nodes")
	}
	if got := h.EdgeNeighbors(0); len(got) != 0 {
		t.Fatalf("singleton edge has neighbors %v", got)
	}
}

func TestHypergraphFromBiEdgeListMatchesFromSets(t *testing.T) {
	bel := sparse.NewBiEdgeList(2, 4)
	bel.Add(0, 1)
	bel.Add(0, 3)
	bel.Add(1, 0)
	a := FromBiEdgeList(bel)
	b := FromSets([][]uint32{{1, 3}, {0}}, 4)
	if !a.Edges.Equal(b.Edges) || !a.Nodes.Equal(b.Nodes) {
		t.Fatal("construction paths disagree")
	}
}
