package sparse

import (
	"reflect"
	"testing"
	"testing/quick"
)

func TestEdgeListAddGrows(t *testing.T) {
	el := NewEdgeList(0)
	el.Add(3, 7)
	if el.NumVertices != 8 {
		t.Fatalf("NumVertices = %d, want 8", el.NumVertices)
	}
	if el.Len() != 1 {
		t.Fatalf("Len = %d", el.Len())
	}
	if err := el.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestEdgeListDedup(t *testing.T) {
	el := NewEdgeList(4)
	el.Add(1, 2)
	el.Add(0, 3)
	el.Add(1, 2)
	el.Add(1, 2)
	el.Dedup()
	want := []Edge{{0, 3}, {1, 2}}
	if !reflect.DeepEqual(el.Edges, want) {
		t.Fatalf("Dedup = %v, want %v", el.Edges, want)
	}
}

func TestEdgeListSymmetrize(t *testing.T) {
	el := NewEdgeList(3)
	el.Add(0, 1)
	el.Add(1, 0) // already has reverse
	el.Add(1, 2)
	el.Add(2, 2) // self-loop kept once
	el.Symmetrize()
	want := []Edge{{0, 1}, {1, 0}, {1, 2}, {2, 1}, {2, 2}}
	if !reflect.DeepEqual(el.Edges, want) {
		t.Fatalf("Symmetrize = %v, want %v", el.Edges, want)
	}
}

func TestEdgeListRemoveSelfLoops(t *testing.T) {
	el := NewEdgeList(3)
	el.Add(0, 0)
	el.Add(0, 1)
	el.Add(2, 2)
	el.RemoveSelfLoops()
	if !reflect.DeepEqual(el.Edges, []Edge{{0, 1}}) {
		t.Fatalf("RemoveSelfLoops = %v", el.Edges)
	}
}

func TestEdgeListValidateRejects(t *testing.T) {
	el := &EdgeList{NumVertices: 2, Edges: []Edge{{0, 5}}}
	if el.Validate() == nil {
		t.Fatal("Validate accepted out-of-range edge")
	}
}

func TestSymmetrizeProperty(t *testing.T) {
	f := func(raw []uint16) bool {
		el := NewEdgeList(0)
		for i := 0; i+1 < len(raw); i += 2 {
			el.Add(uint32(raw[i]%50), uint32(raw[i+1]%50))
		}
		el.Symmetrize()
		// Every edge's reverse must be present (self-loops trivially so).
		present := map[Edge]bool{}
		for _, e := range el.Edges {
			present[e] = true
		}
		for _, e := range el.Edges {
			if !present[Edge{e.V, e.U}] {
				return false
			}
		}
		// And no duplicates.
		return len(present) == len(el.Edges)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestBiEdgeListBasics(t *testing.T) {
	bel := NewBiEdgeList(2, 3)
	bel.Add(0, 2)
	bel.Add(1, 0)
	if bel.NumVertices(0) != 2 || bel.NumVertices(1) != 3 {
		t.Fatalf("cardinalities %d,%d", bel.NumVertices(0), bel.NumVertices(1))
	}
	bel.Add(5, 9) // grows both partitions
	if bel.N0 != 6 || bel.N1 != 10 {
		t.Fatalf("after growth: %d,%d", bel.N0, bel.N1)
	}
	if err := bel.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestBiEdgeListDedupUnweighted(t *testing.T) {
	bel := NewBiEdgeList(2, 2)
	bel.Add(0, 1)
	bel.Add(0, 1)
	bel.Add(1, 0)
	bel.Dedup()
	if bel.Len() != 2 {
		t.Fatalf("Len after dedup = %d", bel.Len())
	}
}

func TestBiEdgeListDedupWeightedKeepsFirst(t *testing.T) {
	bel := NewBiEdgeList(2, 2)
	bel.AddWeighted(0, 1, 5)
	bel.AddWeighted(0, 1, 9)
	bel.AddWeighted(1, 1, 2)
	bel.Dedup()
	if bel.Len() != 2 || len(bel.Weights) != 2 {
		t.Fatalf("after dedup: %d edges, %d weights", bel.Len(), len(bel.Weights))
	}
	if bel.Weights[0] != 5 {
		t.Fatalf("kept weight %v, want first occurrence 5", bel.Weights[0])
	}
}

func TestBiEdgeListValidateWeightMismatch(t *testing.T) {
	bel := NewBiEdgeList(2, 2)
	bel.Add(0, 0)
	bel.Weights = []float64{1, 2}
	if bel.Validate() == nil {
		t.Fatal("Validate accepted weight/edge length mismatch")
	}
}
