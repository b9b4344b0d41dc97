package graph

import (
	"math"
	"sync/atomic"

	"nwhy/internal/parallel"
)

// Inf is the distance reported for unreachable vertices.
var Inf = math.Inf(1)

// SSSPResult carries distances and shortest-path parents from one source.
type SSSPResult struct {
	Dist   []float64
	Parent []int32
}

// DeltaStepping computes single-source shortest paths with the
// delta-stepping algorithm: distances are bucketed by multiples of delta;
// each bucket is settled by repeatedly relaxing its light edges (weight <=
// delta) in parallel, then its heavy edges once. With delta <= min weight it
// behaves like parallel Dijkstra; with delta = +inf like Bellman–Ford.
//
// Unweighted graphs use weight 1 per arc (so distances are hop counts).
// delta <= 0 picks a heuristic delta = max(1e-9, avg weight). Parents are
// reconstructed in a deterministic post-pass: the parent of v is the
// smallest-ID neighbor u with dist[u] + w(u,v) == dist[v].
func DeltaStepping(eng *parallel.Engine, g *Graph, src int, delta float64) *SSSPResult {
	n := g.NumVertices()
	distBits := make([]uint64, n)
	for i := range distBits {
		distBits[i] = math.Float64bits(math.MaxFloat64)
	}
	if delta <= 0 {
		delta = defaultDelta(g)
	}
	distBits[src] = math.Float64bits(0)

	// Non-negative float64 bit patterns order identically to the floats, so
	// an atomic u64-min implements the distance relaxation.
	relax := func(v uint32, nd float64) bool {
		return parallel.MinU64(&distBits[v], math.Float64bits(nd))
	}
	dist := func(v uint32) float64 { return math.Float64frombits(atomic.LoadUint64(&distBits[v])) }

	arcWeight := func(ws []float64, k int) float64 {
		if ws == nil {
			return 1
		}
		return ws[k]
	}

	base := 0.0
	bucket := []uint32{uint32(src)}
	for len(bucket) > 0 && !eng.Cancelled() {
		upper := base + delta
		// Settle light edges of this bucket to a fixpoint.
		active := bucket
		for len(active) > 0 && !eng.Cancelled() {
			moved := parallel.NewTLSFor(eng, func() []uint32 { return nil })
			eng.ForN(len(active), func(w, lo, hi int) {
				buf := moved.Get(w)
				for i := lo; i < hi; i++ {
					u := active[i]
					du := dist(u)
					if du >= upper {
						continue
					}
					row := g.Row(int(u))
					ws := g.Weights(int(u))
					for k, v := range row {
						wgt := arcWeight(ws, k)
						if wgt > delta {
							continue
						}
						if relax(v, du+wgt) && du+wgt < upper {
							*buf = append(*buf, v)
						}
					}
				}
			})
			active = nil
			moved.All(func(v *[]uint32) { active = append(active, *v...) })
		}
		// Heavy edges of everything settled in this bucket, once.
		eng.ForN(n, func(_, lo, hi int) {
			for u := lo; u < hi; u++ {
				du := dist(uint32(u))
				if du < base || du >= upper {
					continue
				}
				row := g.Row(u)
				ws := g.Weights(u)
				for k, v := range row {
					wgt := arcWeight(ws, k)
					if wgt <= delta {
						continue
					}
					relax(v, du+wgt)
				}
			}
		})
		// Jump to the lowest non-empty bucket at or above upper.
		base, bucket = nextBucket(eng, distBits, upper, delta)
	}

	r := &SSSPResult{Dist: make([]float64, n), Parent: make([]int32, n)}
	for i := range r.Dist {
		d := math.Float64frombits(distBits[i])
		if d == math.MaxFloat64 {
			r.Dist[i] = Inf
		} else {
			r.Dist[i] = d
		}
		r.Parent[i] = -1
	}
	// Deterministic parent reconstruction. Scanning v's own (symmetric)
	// adjacency keeps each write local to its owner.
	eng.ForN(n, func(_, lo, hi int) {
		for v := lo; v < hi; v++ {
			if v == src || math.IsInf(r.Dist[v], 1) {
				continue
			}
			row := g.Row(v)
			ws := g.Weights(v)
			for k, u := range row {
				if r.Dist[int(u)]+arcWeight(ws, k) == r.Dist[v] {
					r.Parent[v] = int32(u)
					break
				}
			}
		}
	})
	return r
}

// nextBucket finds the lowest non-empty delta-bucket at or above lower,
// returning its base and members. An empty slice means traversal is done.
func nextBucket(eng *parallel.Engine, distBits []uint64, lower, delta float64) (float64, []uint32) {
	minDist := parallel.ReduceWith(eng, len(distBits), math.MaxFloat64,
		func(lo, hi int, acc float64) float64 {
			for i := lo; i < hi; i++ {
				d := math.Float64frombits(distBits[i])
				if d >= lower && d < acc {
					acc = d
				}
			}
			return acc
		},
		math.Min)
	if minDist == math.MaxFloat64 {
		return lower, nil
	}
	bucketLo := math.Floor(minDist/delta) * delta
	bucketHi := bucketLo + delta
	tls := parallel.NewTLSFor(eng, func() []uint32 { return nil })
	eng.ForN(len(distBits), func(w, lo, hi int) {
		buf := tls.Get(w)
		for i := lo; i < hi; i++ {
			d := math.Float64frombits(distBits[i])
			if d >= bucketLo && d < bucketHi {
				*buf = append(*buf, uint32(i))
			}
		}
	})
	var out []uint32
	tls.All(func(v *[]uint32) { out = append(out, *v...) })
	return bucketLo, out
}

func defaultDelta(g *Graph) float64 {
	if !g.Weighted() || g.NumArcs() == 0 {
		return 1
	}
	sum := 0.0
	for u := 0; u < g.NumVertices(); u++ {
		for _, w := range g.Weights(u) {
			sum += w
		}
	}
	d := sum / float64(g.NumArcs())
	if d < 1e-9 {
		d = 1e-9
	}
	return d
}

// PathTo reconstructs the vertex sequence from the source to dst using the
// parent array, or nil if dst is unreachable.
func (r *SSSPResult) PathTo(dst int) []uint32 {
	if math.IsInf(r.Dist[dst], 1) {
		return nil
	}
	var rev []uint32
	for v := int32(dst); v != -1; v = r.Parent[v] {
		rev = append(rev, uint32(v))
	}
	out := make([]uint32, len(rev))
	for i, v := range rev {
		out[len(rev)-1-i] = v
	}
	return out
}
