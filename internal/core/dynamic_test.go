package core

import (
	"math/rand"
	"testing"

	"nwhy/internal/parallel"
	"nwhy/internal/sparse"
)

func dynBase(t *testing.T) *Hypergraph {
	t.Helper()
	h := FromSets([][]uint32{
		{0, 1, 2},
		{2, 3},
		{4},
		{3, 5},
	}, 6)
	if err := h.Validate(teng); err != nil {
		t.Fatal(err)
	}
	return h
}

func TestNewDynamicRejectsWeighted(t *testing.T) {
	c := sparse.FromPairs(1, 1, []sparse.Edge{{U: 0, V: 0}}, []float64{1})
	h := &Hypergraph{Edges: c, Nodes: c.Transpose()}
	if _, err := NewDynamic(h); err == nil {
		t.Fatal("want error for weighted hypergraph")
	}
}

func TestDynamicAddRemoveSemantics(t *testing.T) {
	d, err := NewDynamic(dynBase(t))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.AddEdge(nil); err == nil {
		t.Fatal("empty hyperedge should be rejected")
	}
	id, err := d.AddEdge([]uint32{5, 1, 5})
	if err != nil {
		t.Fatal(err)
	}
	if id != 4 {
		t.Fatalf("id = %d, want fresh 4", id)
	}
	if got := d.EdgeMembers(id); len(got) != 2 || got[0] != 1 || got[1] != 5 {
		t.Fatalf("members = %v", got)
	}
	if d.NodeDegree(5) != 2 || d.NodeDegree(1) != 2 {
		t.Fatalf("degrees: node5=%d node1=%d", d.NodeDegree(5), d.NodeDegree(1))
	}
	if err := d.RemoveEdge(2); err != nil { // edge {4}: node 4 drops to degree 0
		t.Fatal(err)
	}
	if d.EdgeAlive(2) || d.EdgeMembers(2) != nil {
		t.Fatal("edge 2 should be dead")
	}
	if d.NodeDegree(4) != 0 {
		t.Fatalf("node 4 degree = %d", d.NodeDegree(4))
	}
	if err := d.RemoveEdge(2); err == nil {
		t.Fatal("double remove should fail")
	}
	if d.Deletes() != 1 || d.Inserts() != 1 {
		t.Fatalf("epochs: del=%d ins=%d", d.Deletes(), d.Inserts())
	}
	// Next insert recycles edge ID 2.
	id2, err := d.AddEdge([]uint32{0, 4})
	if err != nil {
		t.Fatal(err)
	}
	if id2 != 2 {
		t.Fatalf("recycled id = %d, want 2", id2)
	}
	if got := d.Dirty(); len(got) != 2 || got[0] != 4 || got[1] != 2 {
		t.Fatalf("dirty = %v", got)
	}
}

func TestDynamicNodeRecycling(t *testing.T) {
	d, err := NewDynamic(dynBase(t))
	if err != nil {
		t.Fatal(err)
	}
	if err := d.RemoveEdge(2); err != nil { // isolates node 4
		t.Fatal(err)
	}
	if v := d.NewNodeID(); v != 4 {
		t.Fatalf("NewNodeID = %d, want recycled 4", v)
	}
	// Free-list is drained; next ID is fresh and grows the space.
	if v := d.NewNodeID(); v != 6 {
		t.Fatalf("NewNodeID = %d, want fresh 6", v)
	}
	if d.NumNodes() != 7 {
		t.Fatalf("NumNodes = %d", d.NumNodes())
	}
}

func TestDynamicNodeRecyclingSkipsReattached(t *testing.T) {
	d, err := NewDynamic(dynBase(t))
	if err != nil {
		t.Fatal(err)
	}
	if err := d.RemoveEdge(2); err != nil { // isolates node 4
		t.Fatal(err)
	}
	if _, err := d.AddEdge([]uint32{4, 0}); err != nil { // re-attaches node 4
		t.Fatal(err)
	}
	if v := d.NewNodeID(); v == 4 {
		t.Fatal("re-attached node must not be recycled")
	}
}

func TestDynamicAddEdgeGrowthGuard(t *testing.T) {
	d, err := NewDynamic(dynBase(t))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.AddEdge([]uint32{1 << 30}); err == nil {
		t.Fatal("absurd node ID should be rejected")
	}
	if _, err := d.AddEdge([]uint32{8}); err != nil { // modest growth is fine
		t.Fatal(err)
	}
	if d.NumNodes() != 9 {
		t.Fatalf("NumNodes = %d", d.NumNodes())
	}
}

func TestDynamicSnapshotValidates(t *testing.T) {
	eng := parallel.NewEngine(4)
	d, err := NewDynamic(dynBase(t))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.AddEdge([]uint32{0, 5}); err != nil {
		t.Fatal(err)
	}
	if err := d.RemoveEdge(1); err != nil {
		t.Fatal(err)
	}
	h, err := d.Snapshot(eng)
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Validate(teng); err != nil {
		t.Fatal(err)
	}
	if h.NumEdges() != 5 || len(h.EdgeIncidence(1)) != 0 {
		t.Fatalf("edges=%d row1=%v", h.NumEdges(), h.EdgeIncidence(1))
	}
}

// liveSets reads the live hyperedges out of a dynamic view as explicit sets
// aligned with the full edge ID space (dead IDs become empty sets).
func liveSets(d *DynamicHypergraph) [][]uint32 {
	sets := make([][]uint32, d.NumEdges())
	for e := range sets {
		sets[e] = append([]uint32(nil), d.EdgeMembers(uint32(e))...)
	}
	return sets
}

// TestDynamicSnapshotMatchesRebuild is the semantic pin for the tentpole:
// a random mutation script applied through the overlay, then compacted,
// must be bit-identical to a hypergraph rebuilt from scratch from the live
// edge sets.
func TestDynamicSnapshotMatchesRebuild(t *testing.T) {
	eng := parallel.NewEngine(4)
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 15; trial++ {
		numNodes := 4 + rng.Intn(30)
		var sets [][]uint32
		for e := 0; e < 2+rng.Intn(20); e++ {
			d := 1 + rng.Intn(4)
			s := make([]uint32, d)
			for j := range s {
				s[j] = uint32(rng.Intn(numNodes))
			}
			sets = append(sets, s)
		}
		base := FromSets(sets, numNodes)
		d, err := NewDynamic(base)
		if err != nil {
			t.Fatal(err)
		}
		live := map[uint32]bool{}
		for e := 0; e < base.NumEdges(); e++ {
			live[uint32(e)] = true
		}
		for op := 0; op < 40; op++ {
			if rng.Intn(3) == 0 && len(live) > 1 {
				var victim uint32
				n := rng.Intn(len(live))
				for e := range live {
					if n == 0 {
						victim = e
						break
					}
					n--
				}
				if err := d.RemoveEdge(victim); err != nil {
					t.Fatal(err)
				}
				delete(live, victim)
			} else {
				deg := 1 + rng.Intn(4)
				s := make([]uint32, deg)
				for j := range s {
					s[j] = uint32(rng.Intn(d.NumNodes()))
				}
				id, err := d.AddEdge(s)
				if err != nil {
					t.Fatal(err)
				}
				live[id] = true
			}
		}
		got, err := d.Snapshot(eng)
		if err != nil {
			t.Fatal(err)
		}
		if err := got.Validate(teng); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		want := FromSets(liveSets(d), got.NumNodes())
		if !got.Edges.Equal(want.Edges) || !got.Nodes.Equal(want.Nodes) {
			t.Fatalf("trial %d: snapshot != rebuild", trial)
		}
	}
}
