package nwhy

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"

	"nwhy/internal/smetrics"
)

// This file is the request-shaped s-metric query surface: every query an
// SLineGraph (or WeightedSLineGraph) handle answers has a *Ctx variant that
// takes a context.Context, runs the kernel on a context-bound engine derived
// for just that call, and reports ctx.Err() if the computation was aborted.
// None of these mutate the receiver, so one cached handle (e.g. in
// internal/server's result cache) can serve many concurrent requests, each
// under its own deadline.
//
// The parameterless score vectors — betweenness, closeness, harmonic
// closeness and eccentricity, weighted or not — are properties of the one
// immutable graph a handle holds, so each handle computes each at most once
// (scoreMemo) and hands every caller its own copy. SDiameterCtx reads the
// memoised eccentricity. SPageRankCtx, whose parameters are the caller's,
// and the point queries run the kernel on every call.

// onCtx derives a one-call smetrics handle observing ctx, and the engine it
// runs on. The receiver's own engine binding is untouched.
func (l *SLineGraph) onCtx(ctx context.Context) (*smetrics.SLineGraph, *Engine) {
	eng := l.SLineGraph.Engine().WithContext(ctx)
	return l.SLineGraph.WithEngine(eng), eng
}

// finish resolves the (result, ctx-error) pair every *Ctx variant returns
// from the engine the query ran on.
func finish[T any](eng *Engine, out T) (T, error) {
	if err := eng.Err(); err != nil {
		var zero T
		return zero, err
	}
	return out, nil
}

// scoreKind names one memoised score vector.
type scoreKind uint8

const (
	scoreBetweenness scoreKind = iota
	scoreCloseness
	scoreHarmonic
	scoreEccentricity
)

// scoreKey identifies one memoised vector: normalized is betweenness's only
// parameter, and weighted tells a strength-weighted twin apart.
type scoreKey struct {
	kind       scoreKind
	normalized bool
	weighted   bool
}

// scoreEntry is one single-flight slot. done is closed exactly once, when
// the computation finishes; scores and err are written before that and only
// read after.
type scoreEntry struct {
	done   chan struct{}
	scores []float64
	err    error
}

// scoreMemo holds the score vectors of one s-line handle, each computed at
// most once. Its zero value is ready to use. It lives and dies with its
// handle, which bounds it: at most five vectors (betweenness normalized and
// not, closeness, harmonic, eccentricity).
type scoreMemo struct {
	mu      sync.Mutex
	entries map[scoreKey]*scoreEntry
}

// get returns the vector for key, shared and read only. On a miss the
// caller runs compute itself, outside the lock; concurrent callers of the
// same key wait for that one run, each under its own ctx. An already
// cancelled ctx gets ctx.Err() even when the vector is there. A run that
// fails, is cancelled or panics leaves no entry (the panic is re-raised);
// a waiter whose builder was cancelled retries while its own ctx is live.
func (m *scoreMemo) get(ctx context.Context, key scoreKey, compute func() ([]float64, error)) ([]float64, error) {
	for {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		m.mu.Lock()
		e, ok := m.entries[key]
		if !ok {
			if m.entries == nil {
				m.entries = map[scoreKey]*scoreEntry{}
			}
			e = &scoreEntry{done: make(chan struct{})}
			m.entries[key] = e
			m.mu.Unlock()
			m.fill(key, e, compute)
			return e.scores, e.err
		}
		m.mu.Unlock()
		select {
		case <-e.done:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		if !errors.Is(e.err, context.Canceled) && !errors.Is(e.err, context.DeadlineExceeded) {
			return e.scores, e.err
		}
	}
}

// fill runs compute into e and closes it. A failed run drops e before
// closing it, so no caller finds it again; a panic becomes e's error for
// the waiters and is re-raised for the builder.
func (m *scoreMemo) fill(key scoreKey, e *scoreEntry, compute func() ([]float64, error)) {
	defer func() {
		r := recover()
		if r != nil {
			e.scores, e.err = nil, fmt.Errorf("nwhy: s-centrality computation panicked: %v", r)
		}
		if e.err != nil {
			m.mu.Lock()
			delete(m.entries, key)
			m.mu.Unlock()
		}
		close(e.done)
		if r != nil {
			panic(r)
		}
	}()
	e.scores, e.err = compute()
}

// copied gives a caller its own copy of a memoised vector.
func copied(v []float64, err error) ([]float64, error) { return slices.Clone(v), err }

// scores serves key from the handle's memo; a miss runs kernel on a one-call
// handle bound to ctx. The vector is shared: callers outside this file get
// it through copied.
func (l *SLineGraph) scores(ctx context.Context, key scoreKey, kernel func(*smetrics.SLineGraph) []float64) ([]float64, error) {
	return l.memo.get(ctx, key, func() ([]float64, error) {
		s, eng := l.onCtx(ctx)
		return finish(eng, kernel(s))
	})
}

// SConnectedComponentsCtx is SConnectedComponents bounded by ctx.
func (l *SLineGraph) SConnectedComponentsCtx(ctx context.Context) ([]uint32, error) {
	s, eng := l.onCtx(ctx)
	return finish(eng, s.SConnectedComponents())
}

// IsSConnectedCtx is IsSConnected bounded by ctx.
func (l *SLineGraph) IsSConnectedCtx(ctx context.Context) (bool, error) {
	s, eng := l.onCtx(ctx)
	return finish(eng, s.IsSConnected())
}

// SDistanceCtx is SDistance bounded by ctx.
func (l *SLineGraph) SDistanceCtx(ctx context.Context, src, dst int) (int, error) {
	s, eng := l.onCtx(ctx)
	return finish(eng, s.SDistance(src, dst))
}

// SPathCtx is SPath bounded by ctx.
func (l *SLineGraph) SPathCtx(ctx context.Context, src, dst int) ([]uint32, error) {
	s, eng := l.onCtx(ctx)
	return finish(eng, s.SPath(src, dst))
}

// SBetweennessCentralityCtx is SBetweennessCentrality bounded by ctx.
func (l *SLineGraph) SBetweennessCentralityCtx(ctx context.Context, normalized bool) ([]float64, error) {
	return copied(l.scores(ctx, scoreKey{kind: scoreBetweenness, normalized: normalized}, func(s *smetrics.SLineGraph) []float64 {
		return s.SBetweennessCentrality(normalized)
	}))
}

// SClosenessCentralityCtx is SClosenessCentrality bounded by ctx.
func (l *SLineGraph) SClosenessCentralityCtx(ctx context.Context) ([]float64, error) {
	return copied(l.scores(ctx, scoreKey{kind: scoreCloseness}, (*smetrics.SLineGraph).SClosenessCentrality))
}

// SHarmonicClosenessCentralityCtx is SHarmonicClosenessCentrality bounded by
// ctx.
func (l *SLineGraph) SHarmonicClosenessCentralityCtx(ctx context.Context) ([]float64, error) {
	return copied(l.scores(ctx, scoreKey{kind: scoreHarmonic}, (*smetrics.SLineGraph).SHarmonicClosenessCentrality))
}

// SEccentricityCtx is SEccentricity bounded by ctx.
func (l *SLineGraph) SEccentricityCtx(ctx context.Context) ([]float64, error) {
	return copied(l.scores(ctx, scoreKey{kind: scoreEccentricity}, (*smetrics.SLineGraph).SEccentricity))
}

// SDiameterCtx is SDiameter bounded by ctx, read off the memoised
// eccentricity vector.
func (l *SLineGraph) SDiameterCtx(ctx context.Context) (float64, error) {
	ecc, err := l.scores(ctx, scoreKey{kind: scoreEccentricity}, (*smetrics.SLineGraph).SEccentricity)
	if err != nil {
		return 0, err
	}
	d := 0.0
	for _, e := range ecc {
		if e > d {
			d = e
		}
	}
	return d, nil
}

// SPageRankCtx is SPageRank bounded by ctx.
func (l *SLineGraph) SPageRankCtx(ctx context.Context, damping, tol float64, maxIter int) ([]float64, error) {
	s, eng := l.onCtx(ctx)
	return finish(eng, s.SPageRank(damping, tol, maxIter))
}

// onCtx derives a one-call weighted smetrics handle observing ctx, and the
// engine it runs on.
func (l *WeightedSLineGraph) onCtx(ctx context.Context) (*smetrics.WeightedSLineGraph, *Engine) {
	eng := l.Engine().WithContext(ctx)
	return l.WeightedSLineGraph.WithEngine(eng), eng
}

// scores is SLineGraph.scores for the strength-weighted vectors.
func (l *WeightedSLineGraph) scores(ctx context.Context, key scoreKey, kernel func(*smetrics.WeightedSLineGraph) []float64) ([]float64, error) {
	key.weighted = true
	return l.memo.get(ctx, key, func() ([]float64, error) {
		s, eng := l.onCtx(ctx)
		return finish(eng, kernel(s))
	})
}

// SDistanceWeightedCtx is SDistanceWeighted bounded by ctx.
func (l *WeightedSLineGraph) SDistanceWeightedCtx(ctx context.Context, src, dst int) (float64, error) {
	s, eng := l.onCtx(ctx)
	return finish(eng, s.SDistanceWeighted(src, dst))
}

// SPathWeightedCtx is SPathWeighted bounded by ctx.
func (l *WeightedSLineGraph) SPathWeightedCtx(ctx context.Context, src, dst int) ([]uint32, error) {
	s, eng := l.onCtx(ctx)
	return finish(eng, s.SPathWeighted(src, dst))
}

// SBetweennessCentralityWeightedCtx is SBetweennessCentralityWeighted
// bounded by ctx.
func (l *WeightedSLineGraph) SBetweennessCentralityWeightedCtx(ctx context.Context, normalized bool) ([]float64, error) {
	return copied(l.scores(ctx, scoreKey{kind: scoreBetweenness, normalized: normalized}, func(s *smetrics.WeightedSLineGraph) []float64 {
		return s.SBetweennessCentralityWeighted(normalized)
	}))
}

// SClosenessCentralityWeightedCtx is SClosenessCentralityWeighted bounded by
// ctx.
func (l *WeightedSLineGraph) SClosenessCentralityWeightedCtx(ctx context.Context) ([]float64, error) {
	return copied(l.scores(ctx, scoreKey{kind: scoreCloseness}, (*smetrics.WeightedSLineGraph).SClosenessCentralityWeighted))
}

// SHarmonicClosenessCentralityWeightedCtx is
// SHarmonicClosenessCentralityWeighted bounded by ctx.
func (l *WeightedSLineGraph) SHarmonicClosenessCentralityWeightedCtx(ctx context.Context) ([]float64, error) {
	return copied(l.scores(ctx, scoreKey{kind: scoreHarmonic}, (*smetrics.WeightedSLineGraph).SHarmonicClosenessCentralityWeighted))
}

// SEccentricityWeightedCtx is SEccentricityWeighted bounded by ctx.
func (l *WeightedSLineGraph) SEccentricityWeightedCtx(ctx context.Context) ([]float64, error) {
	return copied(l.scores(ctx, scoreKey{kind: scoreEccentricity}, (*smetrics.WeightedSLineGraph).SEccentricityWeighted))
}
