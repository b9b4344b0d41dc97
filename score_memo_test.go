package nwhy

import (
	"context"
	"errors"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"nwhy/internal/gen"
)

// errCountCtx counts its Err calls. A memo hit or wait polls its caller's
// ctx once; the caller that runs the kernel polls it again at least once
// more (the engine's Err in finish).
type errCountCtx struct {
	context.Context
	polls atomic.Int64
}

func (c *errCountCtx) Err() error {
	c.polls.Add(1)
	return c.Context.Err()
}

// waitSignalCtx closes waiting the first time Done is asked for: the memo
// asks only when it is about to block on another caller's run.
type waitSignalCtx struct {
	context.Context
	once    sync.Once
	waiting chan struct{}
}

func newWaitSignalCtx() *waitSignalCtx {
	return &waitSignalCtx{Context: context.Background(), waiting: make(chan struct{})}
}

func (c *waitSignalCtx) Done() <-chan struct{} {
	c.once.Do(func() { close(c.waiting) })
	return c.Context.Done()
}

// within fails the test unless ch delivers within 5 s.
func within[T any](t *testing.T, ch <-chan T, what string) T {
	t.Helper()
	select {
	case v := <-ch:
		return v
	case <-time.After(5 * time.Second):
		t.Fatalf("%s: still blocked after 5s", what)
		panic("unreachable")
	}
}

// closedWithin reports whether ch is closed within 5 s; for goroutines,
// which may not stop the test.
func closedWithin(ch <-chan struct{}) bool {
	select {
	case <-ch:
		return true
	case <-time.After(5 * time.Second):
		return false
	}
}

// memoLen reports how many entries m holds, done or in flight.
func memoLen(m *scoreMemo) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.entries)
}

// TestScoreMemoSingleFlight: eight concurrent identical calls on one handle
// run the kernel once, and every caller gets the kernel's vector.
func TestScoreMemoSingleFlight(t *testing.T) {
	const callers = 8
	lg := engineTestHypergraph(t).SLineGraph(2, true)
	want := lg.SHarmonicClosenessCentrality()
	ctxs := make([]*errCountCtx, callers)
	got := make([][]float64, callers)
	errs := make([]error, callers)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := range ctxs {
		ctxs[i] = &errCountCtx{Context: context.Background()}
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			got[i], errs[i] = lg.SHarmonicClosenessCentralityCtx(ctxs[i])
		}()
	}
	close(start)
	wg.Wait()
	runs := 0
	for i, c := range ctxs {
		if errs[i] != nil || !slices.Equal(got[i], want) {
			t.Fatalf("caller %d: %d scores, %v; want the kernel's vector", i, len(got[i]), errs[i])
		}
		if c.polls.Load() > 1 {
			runs++
		}
	}
	if runs != 1 {
		t.Fatalf("%d of %d callers ran the kernel, want 1", runs, callers)
	}
	if n := memoLen(&lg.memo); n != 1 {
		t.Fatalf("memo holds %d entries, want 1", n)
	}
}

// TestScoreMemoLiveWaiterOutlivesCancelledBuilder: a caller waiting on a
// run whose own ctx is cancelled does not inherit the cancellation. It
// computes the vector itself, and one entry is left.
func TestScoreMemoLiveWaiterOutlivesCancelledBuilder(t *testing.T) {
	var m scoreMemo
	key := scoreKey{kind: scoreHarmonic}
	bctx, cancel := context.WithCancel(context.Background())
	wctx := newWaitSignalCtx()
	started, builderErr := make(chan struct{}), make(chan error, 1)
	go func() {
		_, err := m.get(bctx, key, func() ([]float64, error) {
			close(started)
			if !closedWithin(wctx.waiting) {
				return nil, errors.New("the waiter never waited")
			}
			cancel()
			return nil, bctx.Err()
		})
		builderErr <- err
	}()
	within(t, started, "builder")
	want := []float64{1, 2, 3}
	var waiterRuns atomic.Int64
	type reply struct {
		v   []float64
		err error
	}
	waiter := make(chan reply, 1)
	go func() {
		v, err := m.get(wctx, key, func() ([]float64, error) {
			waiterRuns.Add(1)
			return want, nil
		})
		waiter <- reply{v, err}
	}()
	if err := within(t, builderErr, "builder"); !errors.Is(err, context.Canceled) {
		t.Fatalf("builder err = %v, want Canceled", err)
	}
	r := within(t, waiter, "live waiter")
	if r.err != nil || !slices.Equal(r.v, want) || waiterRuns.Load() != 1 {
		t.Fatalf("live waiter got %v, %v after %d runs; want %v from its own run", r.v, r.err, waiterRuns.Load(), want)
	}
	if n := memoLen(&m); n != 1 {
		t.Fatalf("memo holds %d entries, want 1", n)
	}
}

// TestScoreMemoPanicLeavesNoEntry: a run that panics re-raises the panic in
// its caller, hands the waiter an error instead of stranding it, and leaves
// nothing behind, so the next caller computes afresh.
func TestScoreMemoPanicLeavesNoEntry(t *testing.T) {
	var m scoreMemo
	key := scoreKey{kind: scoreBetweenness, normalized: true}
	wctx := newWaitSignalCtx()
	started, recovered := make(chan struct{}), make(chan any, 1)
	go func() {
		defer func() { recovered <- recover() }()
		_, _ = m.get(context.Background(), key, func() ([]float64, error) {
			close(started)
			if !closedWithin(wctx.waiting) {
				panic("the waiter never waited")
			}
			panic("kernel bug")
		})
	}()
	within(t, started, "builder")
	waiterErr := make(chan error, 1)
	go func() {
		_, err := m.get(wctx, key, func() ([]float64, error) { return []float64{0}, nil })
		waiterErr <- err
	}()
	if r := within(t, recovered, "builder"); r != "kernel bug" {
		t.Fatalf("builder recovered %v, want the kernel's panic", r)
	}
	if err := within(t, waiterErr, "waiter"); err == nil || !strings.Contains(err.Error(), "kernel bug") {
		t.Fatalf("waiter err = %v, want the panic as an error", err)
	}
	if n := memoLen(&m); n != 0 {
		t.Fatalf("memo holds %d entries after a panic, want 0", n)
	}
	v, err := m.get(context.Background(), key, func() ([]float64, error) { return []float64{7}, nil })
	if err != nil || !slices.Equal(v, []float64{7}) {
		t.Fatalf("next caller got %v, %v; want a fresh run", v, err)
	}
}

// memoQuery is one memoised *Ctx score query of a handle pair.
type memoQuery struct {
	name string
	run  func(context.Context) ([]float64, error)
	want []float64 // the kernel's vector, run without the memo
}

// memoQueries lists every memoised score query of lg and wlg, each with the
// vector its kernel gives.
func memoQueries(lg *SLineGraph, wlg *WeightedSLineGraph) []memoQuery {
	return []memoQuery{
		{"betweenness", func(ctx context.Context) ([]float64, error) { return lg.SBetweennessCentralityCtx(ctx, false) }, lg.SBetweennessCentrality(false)},
		{"betweenness normalized", func(ctx context.Context) ([]float64, error) { return lg.SBetweennessCentralityCtx(ctx, true) }, lg.SBetweennessCentrality(true)},
		{"closeness", lg.SClosenessCentralityCtx, lg.SClosenessCentrality()},
		{"harmonic", lg.SHarmonicClosenessCentralityCtx, lg.SHarmonicClosenessCentrality()},
		{"eccentricity", lg.SEccentricityCtx, lg.SEccentricity()},
		{"weighted betweenness", func(ctx context.Context) ([]float64, error) { return wlg.SBetweennessCentralityWeightedCtx(ctx, false) }, wlg.SBetweennessCentralityWeighted(false)},
		{"weighted betweenness normalized", func(ctx context.Context) ([]float64, error) { return wlg.SBetweennessCentralityWeightedCtx(ctx, true) }, wlg.SBetweennessCentralityWeighted(true)},
		{"weighted closeness", wlg.SClosenessCentralityWeightedCtx, wlg.SClosenessCentralityWeighted()},
		{"weighted harmonic", wlg.SHarmonicClosenessCentralityWeightedCtx, wlg.SHarmonicClosenessCentralityWeighted()},
		{"weighted eccentricity", wlg.SEccentricityWeightedCtx, wlg.SEccentricityWeighted()},
	}
}

// memoTestHandles builds the unweighted and the weighted s = 2 line graph of
// a community hypergraph on a one-worker engine, so every kernel repeats
// bit for bit.
func memoTestHandles(t *testing.T) (*SLineGraph, *WeightedSLineGraph) {
	t.Helper()
	eng := NewEngine(1)
	t.Cleanup(eng.Close)
	h := gen.Community(gen.CommunityConfig{NumEdges: 120, NumNodes: 60, MeanEdgeSize: 5, SizeSkew: 1.6, MemberSkew: 0.5, Seed: 39})
	g := Wrap(h).WithEngine(eng)
	return g.SLineGraph(2, true), g.SLineGraphWeighted(2)
}

// TestScoreMemoKeysDoNotAlias: every memoised query, asked twice in turn on
// warm handles, answers its own kernel's vector, so no kind, normalized
// flag or weighting reads another's entry; SDiameterCtx reads the memoised
// eccentricity.
func TestScoreMemoKeysDoNotAlias(t *testing.T) {
	lg, wlg := memoTestHandles(t)
	qs := memoQueries(lg, wlg)
	ctx := context.Background()
	for pass := 0; pass < 2; pass++ {
		for _, q := range qs {
			if v, err := q.run(ctx); err != nil || !slices.Equal(v, q.want) {
				t.Fatalf("pass %d: %s differs from its kernel (%v)", pass, q.name, err)
			}
		}
	}
	if n, wn := memoLen(&lg.memo), memoLen(&wlg.memo); n != 5 || wn != 5 {
		t.Fatalf("memos hold %d unweighted and %d weighted entries, want 5 and 5", n, wn)
	}
	for k := range wlg.memo.entries {
		if !k.weighted {
			t.Fatalf("weighted handle memoised %+v", k)
		}
	}
	if d, err := lg.SDiameterCtx(ctx); err != nil || d != lg.SDiameter() {
		t.Fatalf("SDiameterCtx = %v, %v; want %v", d, err, lg.SDiameter())
	}
}

// TestScoreMemoHandsOutCopies: a caller that writes into its vector does not
// change what the next caller gets.
func TestScoreMemoHandsOutCopies(t *testing.T) {
	lg, wlg := memoTestHandles(t)
	ctx := context.Background()
	for _, q := range memoQueries(lg, wlg) {
		v, err := q.run(ctx)
		if err != nil {
			t.Fatalf("%s: %v", q.name, err)
		}
		for i := range v {
			v[i] = -1
		}
		if again, err := q.run(ctx); err != nil || !slices.Equal(again, q.want) {
			t.Fatalf("%s: a caller's write reached the next reply (%v)", q.name, err)
		}
	}
}
