package nwhy

import (
	"context"

	"nwhy/internal/smetrics"
)

// This file is the request-shaped s-metric query surface: every query an
// SLineGraph (or WeightedSLineGraph) handle answers has a *Ctx variant that
// takes a context.Context, runs the kernel on a context-bound engine derived
// for just that call, and reports ctx.Err() if the computation was aborted.
// None of these mutate the receiver, so one cached handle (e.g. in
// internal/server's result cache) can serve many concurrent requests, each
// under its own deadline.

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
	s, eng := l.onCtx(ctx)
	return finish(eng, s.SBetweennessCentrality(normalized))
}

// SClosenessCentralityCtx is SClosenessCentrality bounded by ctx.
func (l *SLineGraph) SClosenessCentralityCtx(ctx context.Context) ([]float64, error) {
	s, eng := l.onCtx(ctx)
	return finish(eng, s.SClosenessCentrality())
}

// SHarmonicClosenessCentralityCtx is SHarmonicClosenessCentrality bounded by
// ctx.
func (l *SLineGraph) SHarmonicClosenessCentralityCtx(ctx context.Context) ([]float64, error) {
	s, eng := l.onCtx(ctx)
	return finish(eng, s.SHarmonicClosenessCentrality())
}

// SEccentricityCtx is SEccentricity bounded by ctx.
func (l *SLineGraph) SEccentricityCtx(ctx context.Context) ([]float64, error) {
	s, eng := l.onCtx(ctx)
	return finish(eng, s.SEccentricity())
}

// SDiameterCtx is SDiameter bounded by ctx.
func (l *SLineGraph) SDiameterCtx(ctx context.Context) (float64, error) {
	s, eng := l.onCtx(ctx)
	return finish(eng, s.SDiameter())
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
	s, eng := l.onCtx(ctx)
	return finish(eng, s.SBetweennessCentralityWeighted(normalized))
}

// SClosenessCentralityWeightedCtx is SClosenessCentralityWeighted bounded by
// ctx.
func (l *WeightedSLineGraph) SClosenessCentralityWeightedCtx(ctx context.Context) ([]float64, error) {
	s, eng := l.onCtx(ctx)
	return finish(eng, s.SClosenessCentralityWeighted())
}

// SHarmonicClosenessCentralityWeightedCtx is
// SHarmonicClosenessCentralityWeighted bounded by ctx.
func (l *WeightedSLineGraph) SHarmonicClosenessCentralityWeightedCtx(ctx context.Context) ([]float64, error) {
	s, eng := l.onCtx(ctx)
	return finish(eng, s.SHarmonicClosenessCentralityWeighted())
}

// SEccentricityWeightedCtx is SEccentricityWeighted bounded by ctx.
func (l *WeightedSLineGraph) SEccentricityWeightedCtx(ctx context.Context) ([]float64, error) {
	s, eng := l.onCtx(ctx)
	return finish(eng, s.SEccentricityWeighted())
}
