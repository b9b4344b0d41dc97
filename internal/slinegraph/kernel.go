package slinegraph

import (
	"math"
	"slices"

	"nwhy/internal/countmap"
	"nwhy/internal/parallel"
	"nwhy/internal/unionfind"
)

// This file is the unified s-overlap construction kernel: one
// count/yield cycle over the run's view (view.go), parameterized by the
// counter strategy (Counter), with the exact flag (overlaps kept beside the
// pairs or not) left to the output stage. Every entry point of this package
// — Construct[Weighted][CSR] through collect, and the components builders —
// runs it, and every run drains the view's work list through the paper's
// dynamic queue in the order the view yields. The paper's four named
// algorithms are Counter values, not code: Hashmap and Algorithm 1 are the
// hashmap counter, Intersection and Algorithm 2 the intersection counter
// (Algorithm 2's enqueue-pairs and intersect phases are fused: the pair
// queue is the intersection counter's per-worker candidate list).

// Counter selects the per-worker overlap-counting strategy.
type Counter int

const (
	// AutoCounter picks dense or hashmap from the size of the ID space (see
	// resolveCounter).
	AutoCounter Counter = iota
	// HashmapCounter tallies overlaps in a per-worker open-addressing hash
	// map (countmap.Map): O(distinct neighbors) memory, the IPDPS'22 default.
	HashmapCounter
	// DenseCounter tallies overlaps in a per-worker counter array indexed
	// by hyperedge ID (countmap.Dense): O(1) access with no probing, O(ID
	// space) memory, the winner when hyperedges overlap much of the ID space.
	DenseCounter
	// IntersectionCounter decides by merging: candidates are deduplicated
	// (first touches in the dense array) and each candidate pair is
	// sorted-merge intersected with short-circuiting at s (the HiPC'21
	// heuristic).
	IntersectionCounter
)

func (c Counter) String() string {
	switch c {
	case HashmapCounter:
		return "hashmap"
	case DenseCounter:
		return "dense"
	case IntersectionCounter:
		return "intersection"
	default:
		return "auto"
	}
}

// worker is one worker's kernel state, bound on first use and recycled
// through its arena on eng: the counter of the run's kind, the run buffers
// the collector reads, and sortDistinct's bitmap.
type worker struct {
	dense countmap.Dense // DenseCounter's tally; IntersectionCounter's visited set
	hash  *countmap.Map  // HashmapCounter's tally
	cand  []uint32       // IntersectionCounter's candidates of one hyperedge
	ids   []uint32       // the emitted runs, back to back
	vals  []float64      // |e ∩ f| beside ids, after an exact run
	bits  []uint64       // sortDistinct's scratch, all zero between calls
	// The walk writes dense's high-water mark on every visit and ids once a
	// hyperedge: no other worker's state may share their cache lines.
	_ [parallel.CacheLinePad]byte
}

// workerKey is the arena key worker states are recycled under.
const workerKey = "slinegraph.worker"

// kernel is one run of the count loop: the view it reads, the threshold,
// the resolved counter, and where a pair that reaches the threshold goes.
type kernel struct {
	*view
	s   int32
	ctr Counter
	// forest, when armed, takes every pair as a union and nothing is
	// appended; known is the same forest under ConnectivityPrune and up,
	// where pairs it already connects are skipped, nil below.
	forest, known *unionfind.Forest
	workers       []*worker // by worker, nil until bound
}

// grabWorker pops a recycled worker state from worker w's arena on eng,
// falling back to a fresh one, so repeated constructions on one engine stop
// allocating their counters and run buffers.
func grabWorker(eng *parallel.Engine, w int) *worker {
	if v, ok := eng.Grab(w, workerKey); ok {
		return v.(*worker)
	}
	return &worker{}
}

// workerOf returns worker w's state in k, binding it from the arena (its
// counter reset for the view's ID space, its buffers empty) on first use. Each slot
// is written once, by its own worker.
func workerOf(eng *parallel.Engine, k *kernel, w int) *worker {
	st := k.workers[w]
	if st == nil {
		st = grabWorker(eng, w)
		if k.ctr != HashmapCounter {
			st.dense.Reset(len(k.eptr) - 1)
		} else if st.hash == nil {
			st.hash = countmap.New(64)
		}
		st.ids, st.vals = st.ids[:0], st.vals[:0]
		k.workers[w] = st
	}
	return st
}

// stashWorkers returns every bound worker state to its arena, once nothing
// reads its runs any more.
func stashWorkers(eng *parallel.Engine, workers []*worker) {
	for w, st := range workers {
		if st != nil {
			eng.Stash(w, workerKey, st)
		}
	}
}

// connected reports whether (e, f) is already known s-connected, in which
// case the pair proves nothing new. A false negative costs one redundant
// union; a false positive cannot happen (SameSet only affirms established
// connectivity), so no component merge is ever lost.
func (k *kernel) connected(e, f uint32) bool {
	return k.known != nil && k.known.SameSet(e, f)
}

// emit takes the pair (e, f), which has reached the threshold.
func (k *kernel) emit(e, f uint32, out []uint32) []uint32 {
	if k.forest != nil {
		k.forest.Union(e, f)
		return out
	}
	return append(out, f)
}

// walk is Algorithm 1, lines 9–14, for hyperedge e: it appends to out every
// f > e with |e ∩ f| ≥ s, each once, unsorted. The tallies yield f at the
// increment that brings its count to s — there is no second pass — and go
// on counting, so after the walk count(f) is the true overlap. The
// intersection strategy (HiPC'21) dedups the candidates, then merges each
// one's row with e's, short-circuiting at s.
func (k *kernel) walk(st *worker, e uint32, out []uint32) []uint32 {
	switch k.ctr {
	case DenseCounter:
		st.dense.Clear()
		for _, u := range k.nodes(e) { // line 9
			for _, f := range k.above(u, e) { // line 10: (i < j)
				if st.dense.Inc(f, 1) == k.s && !k.connected(e, f) { // lines 11-14
					out = k.emit(e, f, out)
				}
			}
		}
	case HashmapCounter:
		st.hash.Clear()
		for _, u := range k.nodes(e) {
			for _, f := range k.above(u, e) {
				if st.hash.Inc(f, 1) == k.s && !k.connected(e, f) {
					out = k.emit(e, f, out)
				}
			}
		}
	default:
		st.dense.Clear()
		st.cand = st.cand[:0]
		for _, u := range k.nodes(e) {
			for _, f := range k.above(u, e) {
				if st.dense.Inc(f, 1) == 1 {
					st.cand = append(st.cand, f)
				}
			}
		}
		re := k.nodes(e)
		for _, f := range st.cand {
			if k.connected(e, f) {
				continue // already one s-component; the merge would be a no-op
			}
			if _, ok := countCommonGE(re, k.nodes(f), int(k.s)); ok {
				out = k.emit(e, f, out)
			}
		}
	}
	return out
}

// count is |e ∩ f| for an f the last walk of st emitted.
func (k *kernel) count(st *worker, f uint32) int32 {
	if k.ctr == HashmapCounter {
		return st.hash.Get(f)
	}
	return st.dense.Get(f)
}

// denseIDSpaceMax is the largest ID space AutoCounter gives the dense counter,
// whose array costs 4 B per ID per worker: 16 MiB a worker at the bound.
const denseIDSpaceMax = 4 << 20

// resolveCounter turns AutoCounter into the dense array up to
// denseIDSpaceMax IDs and the hashmap beyond — measured, not modelled: no
// threshold run in EXPERIMENTS.md has another counter ahead of dense by more
// than noise. Intersection (the HiPC'21 heuristic) runs only when the caller
// pins it.
func resolveCounter(in Input, o Options) Counter {
	if o.Counter != AutoCounter {
		return o.Counter
	}
	if in.IDSpace() <= denseIDSpaceMax {
		return DenseCounter
	}
	return HashmapCounter
}

// construct is the kernel body shared by every construction algorithm:
// resolve the pruning level, build the view of what survives it, drain its
// work list through the dynamic queue in the order the view yields and walk
// each hyperedge. Every s-overlapping pair (e, f), f > e, goes exactly once
// to o.forest when a components builder armed it, to c otherwise: e's
// neighbours as one sorted
// run in the buffer of the worker that walked e (c.workers, which the
// caller stashes back once it has read the runs). s = 0 means what s = 1
// does: a pair must share a hypernode to be counted at all. Returns
// eng.Err() so callers surface mid-run cancellation.
func construct(eng *parallel.Engine, in Input, s int, o Options, c *runCollector) error {
	s = min(max(s, 1), math.MaxInt32)
	p := resolvePrune(o)
	ids := in.EdgeIDs()
	if p == ToplexPrune {
		ids = slices.Clone(o.Subset)
	}
	v, ids, err := buildView(eng, in, s, p, ids)
	defer stashView(eng, v)
	if err != nil {
		return err
	}
	k := &kernel{view: v, s: int32(s), ctr: resolveCounter(in, o), forest: o.forest, workers: c.workers}
	if p >= ConnectivityPrune {
		k.known = o.forest
	}
	parallel.Drain(eng, parallel.NewWorkQueueFor(eng, ids), func(w int, e uint32) {
		st := workerOf(eng, k, w)
		start := len(st.ids)
		st.ids = k.walk(st, e, st.ids)
		if len(st.ids) > start {
			c.record(k, st, w, e, start)
		}
	})
	return eng.Err()
}
