package nwhy

import (
	"context"
	"errors"
	"slices"
	"sync"
	"testing"

	"nwhy/internal/core"
	"nwhy/internal/gen"
	"nwhy/internal/sparse"
)

// toplexCacheWarm is the tests' probe of the toplex memo at the handle's
// current snapshot.
func (g *NWHypergraph) toplexCacheWarm() bool { return g.toplexCacheWarmAt(g.snap()) }

// epochInput generates the input of the epoch tests. One instance goes under
// both the reference and the served handle: a commit never writes to the
// snapshot it replaces.
func epochInput() *core.Hypergraph {
	return gen.Containment(gen.ContainmentConfig{
		NumBase: 40, NumNodes: 120, BaseSize: 8, SubsPerBase: 4, MemberSkew: 0.4, Seed: 5,
	})
}

// insertBatch stages the c-th insert-only batch on an epochInput handle: a
// new toplex bridging two earlier hyperedges, and a subset of it.
func insertBatch(m *Mutation, c int) error {
	a, b := m.g.Incidence(c%40), m.g.Incidence((c*7+3)%40)
	top := append(append([]uint32(nil), a[:3]...), b[:3]...)
	if _, err := m.AddEdge(top); err != nil {
		return err
	}
	_, err := m.AddEdge(top[1:4])
	return err
}

// TestIncrementalSCCOnlyMovesForward runs Labels readers on one maintained
// view beside sixty insert-only commits. A reader that waited behind a build
// spanning a commit must answer at the handle's epoch then, not at the older
// one it arrived in: going back costs a full recompute under the lock and
// makes the next reader absorb the same delta again. So the view recomputes
// once, and every label vector is the unpruned one of the epoch its length
// names.
func TestIncrementalSCCOnlyMovesForward(t *testing.T) {
	const commits, s = 60, 2
	h := epochInput()
	ctx := context.Background()
	ref := Wrap(h)
	want := map[int][]uint32{}
	record := func() {
		labels := unprunedSCC(t, ref, s)
		want[len(labels)] = labels
	}
	record()
	for c := 0; c < commits; c++ {
		if err := ref.Mutate(func(m *Mutation) error { return insertBatch(m, c) }); err != nil {
			t.Fatal(err)
		}
		record()
	}

	g := Wrap(h)
	view := g.IncrementalSCC(s)
	done := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				ne := g.NumEdges()
				labels, _, err := view.Labels(ctx)
				if err != nil {
					t.Error(err)
					return
				}
				if len(labels) < ne || !slices.Equal(labels, want[len(labels)]) {
					t.Errorf("%d labels are the unpruned labels of no epoch from %d hyperedges on", len(labels), ne)
					return
				}
			}
		}()
	}
	for c := 0; c < commits; c++ {
		if err := g.Mutate(func(m *Mutation) error { return insertBatch(m, c) }); err != nil {
			t.Error(err)
			break
		}
	}
	close(done)
	wg.Wait()
	if _, fulls := view.Counts(); fulls != 1 {
		t.Errorf("the view recomputed %d times beside insert-only commits, want once", fulls)
	}
}

// TestSCCAndToplexesNeverCrossAnEpoch runs pruned s-CC and toplex queries
// beside a writer committing insert batches. Each query must answer from
// one snapshot: a hypergraph paired with the next epoch's cover used to
// index past the end of its labels. Every batch grows the hyperedge count,
// so a reply's length names the epoch whose unpruned labels, or brute-force
// toplexes, it must equal.
func TestSCCAndToplexesNeverCrossAnEpoch(t *testing.T) {
	const commits, s = 60, 2
	h := epochInput()
	ctx := context.Background()
	ref := Wrap(h)
	wantLabels, wantTops := map[int][]uint32{}, map[int][]uint32{}
	record := func() {
		wantLabels[ref.NumEdges()] = unprunedSCC(t, ref, s)
		wantTops[ref.NumEdges()] = core.ToplexesBruteForce(ref.Hypergraph())
	}
	record()
	for c := 0; c < commits; c++ {
		if err := ref.Mutate(func(m *Mutation) error { return insertBatch(m, c) }); err != nil {
			t.Fatal(err)
		}
		record()
	}

	g := Wrap(h)
	done := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() {
				if p := recover(); p != nil {
					t.Errorf("a query panicked: %v", p)
				}
			}()
			for {
				select {
				case <-done:
					return
				default:
				}
				ne := g.NumEdges()
				tops, err := g.ToplexesCtx(ctx) // warms the cover the toplex route runs on
				if err != nil {
					t.Error(err)
					return
				}
				labels, err := g.SConnectedComponentsCtx(ctx, s)
				if err != nil {
					t.Error(err)
					return
				}
				if want, ok := wantLabels[len(labels)]; !ok || len(labels) < ne || !slices.Equal(labels, want) {
					t.Errorf("%d labels are the unpruned labels of no epoch from %d hyperedges on", len(labels), ne)
					return
				}
				found := false
				for n, want := range wantTops {
					found = found || (n >= ne && slices.Equal(tops, want))
				}
				if !found {
					t.Errorf("%d toplexes are the toplexes of no epoch from %d hyperedges on", len(tops), ne)
					return
				}
			}
		}()
	}
	for c := 0; c < commits; c++ {
		if err := g.Mutate(func(m *Mutation) error { return insertBatch(m, c) }); err != nil {
			t.Error(err)
			break
		}
	}
	close(done)
	wg.Wait()
}

// TestAdjoinConstructionsNeverCrossAnEpoch runs UseAdjoin constructions and
// adjoin ensembles beside a writer committing insert batches. A construction
// binds one snapshot and must take the adjoin graph of that snapshot: paired
// with the next epoch's, whose hyperedge range is longer, the rows past the
// older nₑ are not empty and the trim to nₑ fails or stamps a wrong graph
// with the older epoch. Every handle's pairs must be the plain construction's
// at the epoch the handle reports.
func TestAdjoinConstructionsNeverCrossAnEpoch(t *testing.T) {
	const commits = 60
	ss := []int{1, 2, 3}
	h := epochInput()
	ctx := context.Background()
	ref := Wrap(h)
	want := map[uint64]map[int][]sparse.Edge{}
	record := func() {
		at := map[int][]sparse.Edge{}
		for _, s := range ss {
			at[s] = ref.SLineGraph(s, true).Pairs()
		}
		want[ref.Epoch()] = at
	}
	record()
	for c := 0; c < commits; c++ {
		if err := ref.Mutate(func(m *Mutation) error { return insertBatch(m, c) }); err != nil {
			t.Fatal(err)
		}
		record()
	}

	g := Wrap(h)
	done := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				lg, err := g.SLineGraphCtx(ctx, 2, true, ConstructOptions{UseAdjoin: true})
				if err != nil {
					t.Errorf("UseAdjoin construction beside a commit: %v", err)
					return
				}
				byS := g.SLineGraphEnsembleQueue(ss, true)
				if len(byS) != len(ss) {
					t.Errorf("adjoin ensemble has %d members, want %d", len(byS), len(ss))
					return
				}
				handles := []*SLineGraph{lg}
				for _, s := range ss {
					handles = append(handles, byS[s])
				}
				for _, l := range handles {
					if !slices.Equal(l.Pairs(), want[l.Epoch()][l.S]) {
						t.Errorf("s=%d: %d pairs stamped epoch %d are not that epoch's s-line graph", l.S, len(l.Pairs()), l.Epoch())
						return
					}
				}
			}
		}()
	}
	for c := 0; c < commits; c++ {
		if err := g.Mutate(func(m *Mutation) error { return insertBatch(m, c) }); err != nil {
			t.Error(err)
			break
		}
	}
	close(done)
	wg.Wait()
}

// TestToplexesCtxCancelledAtEveryPollMemoisesNothing cancels ToplexesCtx at
// each of the scan's polls in turn: a cancelled call returns the context's
// error and leaves the memo cold, so no later query is served a partial
// cover; the first call that outlives its polls answers whole and warms it.
func TestToplexesCtxCancelledAtEveryPollMemoisesNothing(t *testing.T) {
	g := Wrap(gen.Community(gen.CommunityConfig{
		NumEdges: 400, NumNodes: 90, MeanEdgeSize: 5, SizeSkew: 1.5, MemberSkew: 0.6, Seed: 23,
	})).WithEngine(NewEngine(2))
	defer g.Engine().Close()
	want := core.ToplexesBruteForce(g.Hypergraph())
	for polls := int64(0); ; polls++ {
		if polls > 1<<12 {
			t.Fatal("ToplexesCtx never stops polling")
		}
		ctx := &pollsCtx{Context: context.Background()}
		ctx.left.Store(polls)
		tops, err := g.ToplexesCtx(ctx)
		if err == nil {
			if polls == 0 {
				t.Fatal("ToplexesCtx never polled its context")
			}
			if !slices.Equal(tops, want) || !g.toplexCacheWarm() {
				t.Fatalf("after %d polls: %d toplexes, want %d; memo warm = %v", polls, len(tops), len(want), g.toplexCacheWarm())
			}
			return
		}
		if !errors.Is(err, context.Canceled) || tops != nil || g.toplexCacheWarm() {
			t.Fatalf("cancelled at poll %d: %d toplexes, error %v, memo warm = %v; want none, Canceled, cold", polls, len(tops), err, g.toplexCacheWarm())
		}
	}
}
