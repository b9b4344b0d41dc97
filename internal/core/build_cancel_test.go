package core

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"nwhy/internal/parallel"
	"nwhy/internal/sparse"
)

// cancelAtEveryPoll runs build under a context that starts reporting
// context.Canceled at its k-th poll, for every k until a run finishes
// without the countdown running out. Each run must return the engine's
// error and a zero result, or a result check accepts — never a half-filled
// one.
func cancelAtEveryPoll[T any](t *testing.T, base *parallel.Engine, build func(eng *parallel.Engine) (T, error), check func(T) error) {
	t.Helper()
	cancelled := 0
	for k := int64(0); ; k++ {
		if k > 1<<16 {
			t.Fatal("the build never stops polling")
		}
		ctx := newCountdownCtx(k)
		got, err := build(base.WithContext(ctx))
		if err != nil {
			if !errors.Is(err, context.Canceled) || !reflect.ValueOf(got).IsZero() {
				t.Fatalf("cancelled at poll %d: result %v, error %v; want the zero result and context.Canceled", k, got, err)
			}
			cancelled++
			continue
		}
		if err := check(got); err != nil {
			t.Fatalf("poll %d: build reported success with a wrong result: %v", k, err)
		}
		if ctx.left.Load() >= 0 {
			break // the build ran to the end inside its k polls: every poll has been the cancelling one
		}
	}
	if cancelled == 0 {
		t.Fatal("the build never polled its engine")
	}
	t.Logf("%d runs cancelled, one per poll", cancelled)
	got, err := build(base)
	if err == nil {
		err = check(got)
	}
	if err != nil {
		t.Fatalf("engine not reusable after the cancelled builds: %v", err)
	}
}

// sameHypergraph is cancelAtEveryPoll's check for the incidence builds.
func sameHypergraph(want *Hypergraph) func(*Hypergraph) error {
	return func(h *Hypergraph) error {
		if err := h.Validate(); err != nil {
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
			cancelAtEveryPoll(t, eng, func(e *parallel.Engine) (*Hypergraph, error) {
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
	cancelAtEveryPoll(t, eng, func(e *parallel.Engine) (*Hypergraph, error) {
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
		cancelAtEveryPoll(t, eng, d.Snapshot, sameHypergraph(want))
		eng.Close()
	}
}
