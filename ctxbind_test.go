package nwhy

import (
	"context"
	"errors"
	"math"
	"reflect"
	"sync/atomic"
	"testing"
)

// TestSLineGraphCtxHandleDetached pins the SLineGraphCtx contract:
// construction — the kernel and the CSR assembly, on the bipartite and the
// adjoin input alike — runs on the ctx-bound engine, but the returned handle
// is rebound to the handle's own engine, so queries survive the request
// deadline expiring.
func TestSLineGraphCtxHandleDetached(t *testing.T) {
	g := engineTestHypergraph(t)
	for _, o := range []ConstructOptions{{}, {UseAdjoin: true}} {
		ctx, cancel := context.WithCancel(context.Background())
		lg, err := g.SLineGraphCtx(ctx, 2, true, o)
		if err != nil {
			t.Fatalf("%+v: %v", o, err)
		}
		cancel()
		if err := lg.Engine().Err(); err != nil {
			t.Fatalf("%+v: handle engine still bound to the request ctx: %v", o, err)
		}
		if cc := lg.SConnectedComponents(); len(cc) == 0 {
			t.Fatalf("%+v: query after deadline expiry returned nothing", o)
		}
	}
}

// TestRefreshSLineGraphCtxDetached pins the refresh contract: the rebuild
// runs on the ctx-bound engine (a cancelled ctx aborts it with its error),
// and the refreshed handle does not retain the request deadline.
func TestRefreshSLineGraphCtxDetached(t *testing.T) {
	g := mutBase()
	lg := g.SLineGraph(2, true)
	if err := g.Mutate(func(m *Mutation) error {
		_, err := m.AddEdge([]uint32{1, 2, 5})
		return err
	}); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	patched, how, err := g.RefreshSLineGraphCtx(ctx, lg, ConstructOptions{})
	if err != nil || how != RefreshRebuilt {
		t.Fatalf("refresh: how=%v err=%v", how, err)
	}
	cancel()
	if err := patched.Engine().Err(); err != nil {
		t.Fatalf("patched handle still bound to the request ctx: %v", err)
	}
	if cc := patched.SConnectedComponents(); len(cc) == 0 {
		t.Fatal("query on patched handle after deadline expiry returned nothing")
	}

	if err := g.Mutate(func(m *Mutation) error {
		_, err := m.AddEdge([]uint32{0, 3, 6})
		return err
	}); err != nil {
		t.Fatal(err)
	}
	cancelled, cancelNow := context.WithCancel(context.Background())
	cancelNow()
	if _, _, err := g.RefreshSLineGraphCtx(cancelled, patched, ConstructOptions{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled refresh err = %v, want Canceled", err)
	}
}

// pollsCtx reports cancellation from its (left+1)-th Err call on, so a
// kernel is cancelled between two of its own polls rather than by a timer.
type pollsCtx struct {
	context.Context
	left atomic.Int64
}

func (c *pollsCtx) Err() error {
	if c.left.Add(-1) < 0 {
		return context.Canceled
	}
	return nil
}

// TestSMetricQueriesCtxCancellation pins the cancellation contract of the
// three s-metric traversals — the point query, the closeness sweep and
// Brandes — at the facade: cancelled before the call or between two polls
// inside it, each *Ctx entry returns the context's error and no partial
// answer, and the same handle then answers a live request exactly. Each
// polls value gets a fresh handle, so no memoised vector answers in place of
// the cancelled kernel; on the warm handle an already cancelled ctx still
// gets the error.
func TestSMetricQueriesCtxCancellation(t *testing.T) {
	g := engineTestHypergraph(t) // s = 2: a 400-chain beside 200 isolated hyperedges
	ref := g.SLineGraph(2, true)
	wantHarmonic, wantBC := ref.SHarmonicClosenessCentrality(), ref.SBetweennessCentrality(true)

	for _, polls := range []int64{0, 3, 40} {
		lg := g.SLineGraph(2, true)
		newCtx := func() context.Context {
			ctx := &pollsCtx{Context: context.Background()}
			ctx.left.Store(polls)
			return ctx
		}
		if d, err := lg.SDistanceCtx(newCtx(), 0, 399); !errors.Is(err, context.Canceled) || d != 0 {
			t.Fatalf("polls=%d: SDistanceCtx = %d, %v; want 0, Canceled", polls, d, err)
		}
		if p, err := lg.SPathCtx(newCtx(), 0, 399); !errors.Is(err, context.Canceled) || p != nil {
			t.Fatalf("polls=%d: SPathCtx = %v, %v; want nil, Canceled", polls, p, err)
		}
		if v, err := lg.SHarmonicClosenessCentralityCtx(newCtx()); !errors.Is(err, context.Canceled) || v != nil {
			t.Fatalf("polls=%d: SHarmonicClosenessCentralityCtx = %d scores, %v; want none, Canceled", polls, len(v), err)
		}
		if v, err := lg.SBetweennessCentralityCtx(newCtx(), true); !errors.Is(err, context.Canceled) || v != nil {
			t.Fatalf("polls=%d: SBetweennessCentralityCtx = %d scores, %v; want none, Canceled", polls, len(v), err)
		}

		ctx := context.Background()
		if d, err := lg.SDistanceCtx(ctx, 0, 399); err != nil || d != 399 {
			t.Fatalf("polls=%d: live SDistanceCtx = %d, %v; want 399", polls, d, err)
		}
		if p, err := lg.SPathCtx(ctx, 399, 0); err != nil || len(p) != 400 || p[0] != 399 || p[399] != 0 {
			t.Fatalf("polls=%d: live SPathCtx has %d hyperedges, %v", polls, len(p), err)
		}
		if v, err := lg.SHarmonicClosenessCentralityCtx(ctx); err != nil || !reflect.DeepEqual(v, wantHarmonic) {
			t.Fatalf("polls=%d: live harmonic closeness differs after a cancellation (%v)", polls, err)
		}
		v, err := lg.SBetweennessCentralityCtx(ctx, true)
		if err != nil {
			t.Fatal(err)
		}
		for e := range v {
			if math.Abs(v[e]-wantBC[e]) > 1e-12 {
				t.Fatalf("polls=%d: live betweenness[%d] = %v, want %v", polls, e, v[e], wantBC[e])
			}
		}

		cancelled, cancel := context.WithCancel(context.Background())
		cancel()
		if v, err := lg.SHarmonicClosenessCentralityCtx(cancelled); !errors.Is(err, context.Canceled) || v != nil {
			t.Fatalf("polls=%d: warm SHarmonicClosenessCentralityCtx = %d scores, %v; want none, Canceled", polls, len(v), err)
		}
		if v, err := lg.SBetweennessCentralityCtx(cancelled, true); !errors.Is(err, context.Canceled) || v != nil {
			t.Fatalf("polls=%d: warm SBetweennessCentralityCtx = %d scores, %v; want none, Canceled", polls, len(v), err)
		}
	}
}
