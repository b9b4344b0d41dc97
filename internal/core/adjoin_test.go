package core

import (
	"reflect"
	"slices"
	"testing"
	"testing/quick"
)

func TestAdjoinPaperExample(t *testing.T) {
	h := paperHypergraph()
	a := tAdjoin(h)
	if a.NumVertices() != 13 || a.NumRealEdges != 4 || a.NumRealNodes != 9 {
		t.Fatalf("adjoin shape: %d vertices, %d edges, %d nodes", a.NumVertices(), a.NumRealEdges, a.NumRealNodes)
	}
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
	// Figure 3: hyperedge IDs 0..3, hypernode IDs 4..12. Hyperedge 0 = {0,1,2}
	// connects to shared IDs 4,5,6.
	if got := a.G.Row(0); !reflect.DeepEqual(got, []uint32{4, 5, 6}) {
		t.Fatalf("adjoin row 0 = %v", got)
	}
	// Hypernode 0 (shared ID 4) is in hyperedges 0 and 3.
	if got := a.G.Row(4); !reflect.DeepEqual(got, []uint32{0, 3}) {
		t.Fatalf("adjoin row 4 = %v", got)
	}
}

func TestAdjoinBlockStructure(t *testing.T) {
	// Figure 4: A_G = [[0, B^t],[B, 0]] — no edge stays within one partition.
	h := randomHypergraph(20, 30, 6, 1)
	a := tAdjoin(h)
	for u := 0; u < a.NumVertices(); u++ {
		for _, v := range a.G.Row(u) {
			if a.IsHyperedge(u) == a.IsHyperedge(int(v)) {
				t.Fatalf("edge (%d,%d) violates block anti-diagonal structure", u, v)
			}
		}
	}
	if !a.G.IsSymmetric() {
		t.Fatal("adjoin adjacency not symmetric")
	}
}

func TestAdjoinIDMapping(t *testing.T) {
	a := tAdjoin(paperHypergraph())
	if a.EdgeID(2) != 2 || a.NodeID(0) != 4 || a.NodeID(8) != 12 {
		t.Fatal("ID mapping wrong")
	}
	if !a.IsHyperedge(3) || a.IsHyperedge(4) {
		t.Fatal("IsHyperedge wrong at the boundary")
	}
}

func TestSplitResult(t *testing.T) {
	a := tAdjoin(paperHypergraph())
	all := make([]int, 13)
	for i := range all {
		all[i] = i * 10
	}
	edges, nodes := SplitResult(a, all)
	if len(edges) != 4 || len(nodes) != 9 {
		t.Fatalf("split lengths %d/%d", len(edges), len(nodes))
	}
	if edges[3] != 30 || nodes[0] != 40 || nodes[8] != 120 {
		t.Fatal("split contents wrong")
	}
}

// Adjoin loses nothing: row e of the adjoin graph is hyperedge e's members
// shifted by NumRealEdges, and row NumRealEdges+v is hypernode v's
// hyperedges.
func TestAdjoinRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		h := randomHypergraph(15, 25, 5, seed)
		a := tAdjoin(h)
		ne := uint32(a.NumRealEdges)
		for e := 0; e < h.NumEdges(); e++ {
			back := slices.Clone(a.G.Row(e))
			for k := range back {
				back[k] -= ne
			}
			if !slices.Equal(back, h.EdgeIncidence(e)) {
				return false
			}
		}
		for v := 0; v < h.NumNodes(); v++ {
			if !slices.Equal(a.G.Row(int(ne)+v), h.NodeIncidence(v)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestAdjoinEmptyHypergraph(t *testing.T) {
	a := tAdjoin(FromSets(nil, 0))
	if a.NumVertices() != 0 {
		t.Fatal("empty adjoin not empty")
	}
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
}
