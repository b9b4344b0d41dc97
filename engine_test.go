package nwhy

import (
	"context"
	"errors"
	"reflect"
	"sync"
	"testing"
	"time"

	"nwhy/internal/parallel"
)

// engineTestHypergraph builds a hypergraph big enough that its kernels
// actually fan out over workers: a chain of overlapping hyperedges plus a
// block of disconnected singleton edges.
func engineTestHypergraph(t *testing.T) *NWHypergraph {
	t.Helper()
	sets := make([][]uint32, 0, 600)
	for e := 0; e < 400; e++ {
		// Chain: edge e holds nodes {2e, 2e+1, 2e+2, 2e+3} so consecutive
		// edges overlap in two nodes (2-line-graph chain).
		sets = append(sets, []uint32{uint32(2 * e), uint32(2*e + 1), uint32(2*e + 2), uint32(2*e + 3)})
	}
	base := uint32(2*400 + 4)
	for e := 0; e < 200; e++ {
		sets = append(sets, []uint32{base + uint32(e)})
	}
	return FromSets(sets, -1)
}

// TestTwoEnginesConcurrently runs HyperCC and an s-line-graph construction
// on two independent engines with different worker counts at the same time
// and checks both agree with the shared-engine result. Run under -race this
// is the isolation guarantee of the explicit-engine refactor: no shared
// mutable state between engines.
func TestTwoEnginesConcurrently(t *testing.T) {
	g := engineTestHypergraph(t)
	wantCC := g.ConnectedComponents(CCHyper)
	wantPairs := g.SLineGraph(2, true).Pairs()

	e1 := NewEngine(2)
	defer e1.Close()
	e2 := NewEngine(4)
	defer e2.Close()
	g1 := g.WithEngine(e1)
	g2 := g.WithEngine(e2)

	const rounds = 5
	var wg sync.WaitGroup
	errs := make(chan string, 4*rounds)
	run := func(gt *NWHypergraph, label string) {
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			if cc := gt.ConnectedComponents(CCHyper); !reflect.DeepEqual(cc.EdgeComp, wantCC.EdgeComp) {
				errs <- label + ": HyperCC labels diverged"
				return
			}
			if lg := gt.SLineGraph(2, true); !reflect.DeepEqual(lg.Pairs(), wantPairs) {
				errs <- label + ": s-line pairs diverged"
				return
			}
		}
	}
	wg.Add(4)
	go run(g1, "engine1/a")
	go run(g1, "engine1/b")
	go run(g2, "engine2/a")
	go run(g2, "engine2/b")
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}

// TestBFSCtxCancellation asserts an expired deadline aborts HyperBFS before
// completion and surfaces ctx.Err().
func TestBFSCtxCancellation(t *testing.T) {
	g := engineTestHypergraph(t)
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	for _, v := range []BFSVariant{BFSTopDown, BFSBottomUp, BFSDirectionOptimizing, BFSAdjoin, BFSHygraBaseline} {
		r, err := g.BFSCtx(ctx, 0, v)
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("variant %d: err = %v, want DeadlineExceeded", v, err)
		}
		if r != nil {
			t.Fatalf("variant %d: got non-nil result from cancelled BFS", v)
		}
	}
	// A live context must still produce the full traversal.
	r, err := g.BFSCtx(context.Background(), 0, BFSTopDown)
	if err != nil {
		t.Fatal(err)
	}
	if want := g.BFS(0, BFSTopDown); !reflect.DeepEqual(r.EdgeLevel, want.EdgeLevel) {
		t.Fatal("live-context BFS differs from plain BFS")
	}
}

// TestSLineGraphWithOnCancelledEngine: on a handle whose bound engine is
// already cancelled, the ctx-less constructors return a nil handle, weighted
// and unweighted alike — never a non-nil wrapper around nothing.
func TestSLineGraphWithOnCancelledEngine(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	g := engineTestHypergraph(t)
	bound := g.WithEngine(g.Engine().WithContext(ctx))
	if lg := bound.SLineGraphWith(2, true, ConstructOptions{}); lg != nil {
		t.Fatal("SLineGraphWith on a cancelled engine returned a handle")
	}
	if wlg := bound.SLineGraphWeightedWith(2, ConstructOptions{}); wlg != nil {
		t.Fatal("SLineGraphWeightedWith on a cancelled engine returned a handle")
	}
}

// TestSLineGraphCtxCancellation asserts a cancelled context aborts the
// s-line-graph construction (every preset and the zero value) with ctx.Err().
func TestSLineGraphCtxCancellation(t *testing.T) {
	g := engineTestHypergraph(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, o := range []ConstructOptions{{}, PresetHashmap, PresetIntersection, PresetAlgorithm1, PresetAlgorithm2} {
		lg, err := g.SLineGraphCtx(ctx, 2, true, o)
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("%+v: err = %v, want Canceled", o, err)
		}
		if lg != nil {
			t.Fatalf("%+v: got non-nil handle from cancelled construction", o)
		}
	}
	if _, err := g.SConnectedComponentsCtx(ctx, 2); !errors.Is(err, context.Canceled) {
		t.Fatalf("SConnectedComponentsCtx err = %v, want Canceled", err)
	}
	if _, err := g.ConnectedComponentsCtx(ctx, CCHyper); !errors.Is(err, context.Canceled) {
		t.Fatalf("ConnectedComponentsCtx err = %v, want Canceled", err)
	}
	if _, err := g.HyperPageRankCtx(ctx, 0.85, 1e-9, 100); !errors.Is(err, context.Canceled) {
		t.Fatalf("HyperPageRankCtx err = %v, want Canceled", err)
	}
	if _, err := g.CliqueExpansionCtx(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("CliqueExpansionCtx err = %v, want Canceled", err)
	}
}

// TestWithEngineSharesStructure checks WithEngine is a cheap rebind: the
// underlying hypergraph is shared and the original handle keeps its engine.
func TestWithEngineSharesStructure(t *testing.T) {
	g := engineTestHypergraph(t)
	eng := NewEngine(3)
	defer eng.Close()
	gt := g.WithEngine(eng)
	if gt.Hypergraph() != g.Hypergraph() {
		t.Fatal("WithEngine copied the hypergraph")
	}
	if gt.Engine() != eng {
		t.Fatal("WithEngine did not bind the engine")
	}
	if g.Engine() == eng {
		t.Fatal("WithEngine mutated the receiver")
	}
	if eng.NumWorkers() != 3 {
		t.Fatalf("NumWorkers = %d, want 3", eng.NumWorkers())
	}
}

// TestDerivedHandlesKeepEngine: every handle derived from g — Dual,
// Toplexify, the three collapses, the two restrictions — is bound to g's
// engine, so a query on one derived from a one-worker-engine handle hands
// the process-wide default pool nothing.
func TestDerivedHandlesKeepEngine(t *testing.T) {
	eng := NewEngine(1)
	defer eng.Close()
	g := engineTestHypergraph(t).WithEngine(eng)
	ids := make([]uint32, 300)
	for i := range ids {
		ids[i] = uint32(i)
	}
	derived := map[string]*NWHypergraph{
		"Dual":            g.Dual(),
		"Toplexify":       g.Toplexify(),
		"RestrictToEdges": g.RestrictToEdges(ids),
		"RestrictToNodes": g.RestrictToNodes(ids),
	}
	derived["CollapseEdges"], _ = g.CollapseEdges()
	derived["CollapseNodes"], _ = g.CollapseNodes()
	derived["CollapseNodesAndEdges"], _ = g.CollapseNodesAndEdges()
	def := parallel.Default()
	for name, d := range derived {
		if d.Engine() != g.Engine() {
			t.Errorf("%s: derived handle not bound to g's engine", name)
		}
		before := def.Submitted()
		d.ConnectedComponents(CCHyper)
		if n := def.Submitted() - before; n != 0 {
			t.Errorf("%s: a query on the derived handle gave the default pool %d tasks", name, n)
		}
	}
}

// TestNonCtxTwinsObserveBoundContext: every ctx-less method of shims.go runs
// with the context the handle's engine is bound to: on an already cancelled
// one each returns its zero result (RefreshSLineGraph and Commit: the
// context's error) and schedules no kernel.
func TestNonCtxTwinsObserveBoundContext(t *testing.T) {
	g := engineTestHypergraph(t)
	lg := g.SLineGraph(2, true)
	if err := g.Mutate(func(m *Mutation) error {
		_, err := m.AddEdge([]uint32{1, 2, 5})
		return err
	}); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	bound := g.WithEngine(g.Engine().WithContext(ctx))
	m, err := bound.BeginMutation()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.AddEdge([]uint32{0, 3, 6}); err != nil {
		t.Fatal(err)
	}
	epoch := g.Epoch()
	twins := map[string]func() bool{
		"BFS":                    func() bool { return bound.BFS(0, BFSTopDown) == nil },
		"ConnectedComponents":    func() bool { return bound.ConnectedComponents(CCHyper) == nil },
		"HyperPageRank":          func() bool { return bound.HyperPageRank(0.85, 1e-9, 100) == nil },
		"Toplexes":               func() bool { return bound.Toplexes() == nil },
		"CliqueExpansion":        func() bool { return bound.CliqueExpansion() == nil },
		"SLineGraph":             func() bool { return bound.SLineGraph(2, true) == nil },
		"SLineGraphWith":         func() bool { return bound.SLineGraphWith(2, true, PresetAlgorithm2) == nil },
		"SLineGraphWeighted":     func() bool { return bound.SLineGraphWeighted(2) == nil },
		"SLineGraphWeightedWith": func() bool { return bound.SLineGraphWeightedWith(2, PresetHashmap) == nil },
		"SConnectedComponents":   func() bool { return bound.SConnectedComponents(2) == nil },
		"RefreshSLineGraph": func() bool {
			nl, _, err := bound.RefreshSLineGraph(lg, ConstructOptions{})
			return nl == nil && errors.Is(err, context.Canceled)
		},
		"Mutation.Commit": func() bool { return errors.Is(m.Commit(), context.Canceled) },
	}
	def := parallel.Default()
	for name, zero := range twins {
		before := def.Submitted()
		if !zero() {
			t.Errorf("%s on a cancelled engine returned a result", name)
		}
		if n := def.Submitted() - before; n != 0 {
			t.Errorf("%s: the default pool received %d tasks on a cancelled engine", name, n)
		}
	}
	if g.Epoch() != epoch {
		t.Error("a cancelled commit published a snapshot")
	}
}
