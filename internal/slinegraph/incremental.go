package slinegraph

import (
	"sync"

	"nwhy/internal/countmap"
	"nwhy/internal/parallel"
	"nwhy/internal/sparse"
	"nwhy/internal/unionfind"
)

// ConstructDirty computes the canonical s-line pairs incident to the dirty
// hyperedges only — the incremental kernel behind overlay mutation. The key
// structural fact: inserting a hyperedge never changes the overlap between
// two pre-existing hyperedges (member sets are immutable), so after an
// insert-only batch the s-line graph changes exactly by pairs touching a
// dirty edge. Unlike the full kernel's tally walk, the filter here is f ≠ e
// (not f > e): a dirty edge must pair with older edges on both sides.
// Dirty IDs that are dead or below degree s contribute nothing.
//
// Deletions are out of scope by design — a tombstone moves the delete epoch
// and consumers rebuild from scratch.
func ConstructDirty(eng *parallel.Engine, in Input, s int, dirty []uint32) ([]sparse.Edge, error) {
	isDirty := make(map[uint32]bool, len(dirty))
	for _, e := range dirty {
		isDirty[e] = true
	}
	tls := parallel.NewTLSFor(eng, func() []sparse.Edge { return nil })
	pool := sync.Pool{New: func() any { return countmap.New(64) }}
	eng.For(eng.Blocked(0, len(dirty)), func(w, lo, hi int) {
		buf := tls.Get(w)
		for i := lo; i < hi; i++ {
			e := dirty[i]
			if in.EdgeDegree(e) < s {
				continue
			}
			cnt := pool.Get().(*countmap.Map)
			cnt.Clear()
			for _, v := range in.Incidence(e) {
				for _, f := range in.EdgesOf(v) {
					if f != e && in.EdgeDegree(f) >= s {
						cnt.Inc(f, 1)
					}
				}
			}
			cnt.Range(func(f uint32, c int32) {
				if int(c) < s {
					return
				}
				// A dirty-dirty pair is found from both ends; keep it once,
				// from its minimum endpoint (canonPairs would dedup anyway,
				// but not doubling the buffer is free here).
				if isDirty[f] && f < e {
					return
				}
				u, v := e, f
				if u > v {
					u, v = v, u
				}
				*buf = append(*buf, sparse.Edge{U: u, V: v})
			})
			pool.Put(cnt)
		}
	})
	if err := eng.Err(); err != nil {
		return nil, err
	}
	return canonPairs(eng, parallel.FlattenTLS(nil, tls, nil)), nil
}

// SComponentsForest is SComponentsDirect keeping the union-find forest
// alive: the caller owns it and can later Grow it and absorb insert-only
// deltas without recomputing from scratch. The forest is compressed on
// return.
//
// The run feeds the forest back into the kernel, arming the connected
// short-circuit: once two hyperedges land in one s-component, later
// candidate pairs between that component's members skip counting entirely
// (their union would be a no-op). Pass Options.Prune = NoPrune to disable
// every heuristic (the benchmark baseline); labels are identical either way.
func SComponentsForest(eng *parallel.Engine, in Input, s int, o Options) (*unionfind.Forest, error) {
	forest := unionfind.New(in.IDSpace())
	o.forest = forest
	if err := unionInto(eng, in, s, o); err != nil {
		return nil, err
	}
	forest.Compress(eng)
	if err := eng.Err(); err != nil {
		return nil, err
	}
	return forest, nil
}

// unionInto runs the kernel with o.forest armed: every s-overlapping pair is
// unioned into it, none is collected.
func unionInto(eng *parallel.Engine, in Input, s int, o Options) error {
	c := &runCollector{workers: make([]*worker, eng.NumWorkers())}
	defer stashWorkers(eng, c.workers)
	return construct(eng, in, s, o, c)
}

// AbsorbPairs unions a batch of s-line pairs into an existing forest — the
// incremental s-CC step for insert-only deltas, the connectivity-only
// short-circuit of the companion paper: component labels need the pairs'
// existence, never their exact overlap counts. The forest is compressed on
// return so Labels is immediately valid.
func AbsorbPairs(eng *parallel.Engine, forest *unionfind.Forest, pairs []sparse.Edge) error {
	eng.For(eng.Blocked(0, len(pairs)), func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			forest.Union(pairs[i].U, pairs[i].V)
		}
	})
	forest.Compress(eng) // a no-op once cancelled
	return eng.Err()
}
