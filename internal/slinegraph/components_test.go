package slinegraph

import (
	"testing"
	"testing/quick"

	"nwhy/internal/core"
	"nwhy/internal/graph"
)

// componentsViaMaterialize is the reference: build the s-line graph, run CC.
func componentsViaMaterialize(h *core.Hypergraph, s int) []uint32 {
	csr, _ := ConstructCSR(teng, FromHypergraph(h), s, Options{Counter: HashmapCounter})
	lg, _ := graph.FromCSR(csr)
	return graph.CanonicalizeComponents(graph.CCAfforest(teng, lg))
}

func TestSComponentsDirectMatchesMaterialized(t *testing.T) {
	f := func(seed int64) bool {
		h := randomHypergraph(40, 25, 6, seed)
		for s := 1; s <= 3; s++ {
			want := componentsViaMaterialize(h, s)
			got := tSComponentsDirect(FromHypergraph(h), s, Options{})
			if len(got) != len(want) {
				return false
			}
			for e := range want {
				if got[e] != want[e] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestSComponentsDirectPaperExample(t *testing.T) {
	h := paperHypergraph()
	// s=1: the line graph is a 4-cycle -> one component labeled 0.
	got := tSComponentsDirect(FromHypergraph(h), 1, Options{})
	for e := 0; e < 4; e++ {
		if got[e] != 0 {
			t.Fatalf("s=1 components = %v", got[:4])
		}
	}
	// s=2: no s-line edges -> all singletons.
	got2 := tSComponentsDirect(FromHypergraph(h), 2, Options{})
	for e := 0; e < 4; e++ {
		if got2[e] != uint32(e) {
			t.Fatalf("s=2 components = %v", got2[:4])
		}
	}
}

func TestSComponentsDirectOnAdjoin(t *testing.T) {
	h := randomHypergraph(30, 20, 5, 9)
	a := core.Adjoin(teng, h)
	want := tSComponentsDirect(FromHypergraph(h), 2, Options{})
	got := tSComponentsDirect(FromAdjoin(a), 2, Options{})
	// Adjoin ID space is larger, but the hyperedge prefix must agree.
	for e := 0; e < h.NumEdges(); e++ {
		if got[e] != want[e] {
			t.Fatalf("adjoin direct components differ at %d", e)
		}
	}
}

func TestSComponentsDirectDeterministic(t *testing.T) {
	h := randomHypergraph(50, 30, 6, 4)
	a := tSComponentsDirect(FromHypergraph(h), 2, Options{})
	for i := 0; i < 5; i++ {
		b := tSComponentsDirect(FromHypergraph(h), 2, Options{})
		for e := range a {
			if a[e] != b[e] {
				t.Fatal("direct components not deterministic across runs")
			}
		}
	}
}
