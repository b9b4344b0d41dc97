package core

import (
	"errors"
	"math/rand"
	"testing"

	"nwhy/internal/parallel"
	"nwhy/internal/parallel/paralleltest"
	"nwhy/internal/sparse"
)

// sameHypergraph is CancelAtEveryPoll's check for the incidence builds.
func sameHypergraph(want *Hypergraph) func(*Hypergraph) error {
	return func(h *Hypergraph) error {
		if err := h.Validate(teng); err != nil {
			return err
		}
		if !sameIncidence(h, want) {
			return errors.New("a different hypergraph")
		}
		return nil
	}
}

func sameIncidence(a, b *Hypergraph) bool {
	return a.Edges.Equal(b.Edges) && a.Nodes.Equal(b.Nodes)
}

// noisyBiEdgeList is dense enough (entries over IDs) that the counting
// passes cut it into one block per worker, in hyperedge order or shuffled.
func noisyBiEdgeList(seed int64, inEdgeOrder bool) *sparse.BiEdgeList {
	rng := rand.New(rand.NewSource(seed))
	bel := sparse.NewBiEdgeList(60, 45)
	for e := 0; e < 60; e++ {
		for k := 0; k < 30; k++ {
			bel.Edges = append(bel.Edges, sparse.Edge{U: uint32(e), V: uint32(rng.Intn(45))})
		}
	}
	if !inEdgeOrder {
		rng.Shuffle(len(bel.Edges), func(i, j int) { bel.Edges[i], bel.Edges[j] = bel.Edges[j], bel.Edges[i] })
	}
	return bel
}

func TestFromBiEdgeListOnCancelledAtEveryPoll(t *testing.T) {
	for workers := 1; workers <= 3; workers++ {
		eng := parallel.NewEngine(workers)
		for _, inEdgeOrder := range []bool{true, false} {
			bel := noisyBiEdgeList(int64(workers), inEdgeOrder)
			paralleltest.CancelAtEveryPoll(t, eng, func(e *parallel.Engine) (*Hypergraph, error) {
				return FromBiEdgeListOn(e, bel)
			}, sameHypergraph(FromBiEdgeList(bel)))
		}
		eng.Close()
	}
}

func TestFromIncidenceCSROnCancelledAtEveryPoll(t *testing.T) {
	eng := parallel.NewEngine(2)
	defer eng.Close()
	want := FromBiEdgeList(noisyBiEdgeList(5, true))
	paralleltest.CancelAtEveryPoll(t, eng, func(e *parallel.Engine) (*Hypergraph, error) {
		return FromIncidenceCSROn(e, want.Edges)
	}, sameHypergraph(want))
}

func TestSnapshotCancelledAtEveryPoll(t *testing.T) {
	for workers := 1; workers <= 3; workers++ {
		eng := parallel.NewEngine(workers)
		d, err := NewDynamic(FromBiEdgeList(noisyBiEdgeList(9, true)))
		if err != nil {
			t.Fatal(err)
		}
		for e := uint32(0); e < 20; e += 3 {
			if err := d.RemoveEdge(e); err != nil {
				t.Fatal(err)
			}
			if _, err := d.AddEdge([]uint32{e, e + 7, e + 11, 44}); err != nil {
				t.Fatal(err)
			}
		}
		want, err := d.Snapshot(eng)
		if err != nil {
			t.Fatal(err)
		}
		paralleltest.CancelAtEveryPoll(t, eng, d.Snapshot, sameHypergraph(want))
		eng.Close()
	}
}
