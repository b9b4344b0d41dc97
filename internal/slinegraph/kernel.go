package slinegraph

import (
	"sort"

	"nwhy/internal/countmap"
	"nwhy/internal/parallel"
	"nwhy/internal/sparse"
)

// This file is the unified s-overlap construction kernel: one generic
// count/filter/emit cycle parameterized along two orthogonal axes — counter
// strategy (Counter) and work schedule (Schedule) — plus the exact flag
// (true overlaps or any count ≥ s, chosen by the entry point). Every entry
// point of this package — Construct[Weighted][CSR] through collect, and the
// components builders — runs it; the paper's four named
// algorithms are Counter × Schedule values, not code: Hashmap and
// Intersection are those counters under BlockedSchedule, Algorithms 1 and 2
// the same two under QueueSchedule (Algorithm 2's enqueue-pairs and
// intersect phases are fused: the pair queue is the intersection counter's
// per-worker candidate list).

// Counter selects the per-worker overlap-counting strategy.
type Counter int

const (
	// AutoCounter picks dense or hashmap from the size of the ID space (see
	// resolveAxes).
	AutoCounter Counter = iota
	// HashmapCounter tallies overlaps in a per-worker open-addressing hash
	// map (countmap.Map): O(distinct neighbors) memory, the IPDPS'22 default.
	HashmapCounter
	// DenseCounter tallies overlaps in a per-worker stamp/counter array
	// indexed by hyperedge ID: O(1) access with no probing, O(ID space)
	// memory, the winner when hyperedges overlap much of the ID space.
	DenseCounter
	// IntersectionCounter skips tallying: candidates are deduplicated with a
	// stamp array and each candidate pair is sorted-merge intersected with
	// short-circuiting at s (the HiPC'21 heuristic).
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

// Schedule selects how hyperedges are distributed over workers.
type Schedule int

const (
	// DefaultSchedule is the entry point's own schedule: blocked for the
	// constructions, the queue for the components builders.
	DefaultSchedule Schedule = iota
	// BlockedSchedule assigns contiguous chunks (tbb::blocked_range).
	BlockedSchedule
	// CyclicSchedule assigns hyperedges round-robin with a stride.
	CyclicSchedule
	// QueueSchedule is the paper's dynamic work queue: workers fetch chunks
	// with an atomic cursor, rebalancing skew regardless of order.
	QueueSchedule
	// AutoSchedule picks a schedule from the relabel order and degree skew
	// (see resolveAxes).
	AutoSchedule
)

func (s Schedule) String() string {
	switch s {
	case BlockedSchedule:
		return "blocked"
	case CyclicSchedule:
		return "cyclic"
	case QueueSchedule:
		return "queue"
	case AutoSchedule:
		return "auto"
	default:
		return "default"
	}
}

// overlapCounter is the per-worker strategy object of the kernel: process
// yields every neighbor f > e with |e ∩ f| ≥ s. When exact is set the
// yielded count is the true overlap size |e ∩ f| (ConstructWeightedCSR's
// value column); otherwise it may be any value ≥ s reached after
// short-circuiting. Counters are arena-recycled across runs via reset.
type overlapCounter interface {
	// reset prepares the counter for in's ID space. Called once per run when
	// the counter is bound to a worker.
	reset(in Input)
	// process visits hyperedge e, yielding each (f, count) with f > e,
	// deg(f) ≥ s and |e ∩ f| ≥ s. pr supplies the run's pruning state:
	// candidate eligibility (degree prefilter / toplex restriction) and the
	// connected short-circuit.
	process(in Input, e uint32, s int, exact bool, pr *pruneState, yield func(f uint32, c int32))
}

// tallyCounter counts overlaps through the two-level incidence walk into a
// pluggable countmap.Counter (hashmap or dense). Tallies are always exact —
// every shared hypernode increments — so the exact flag costs it nothing.
type tallyCounter struct {
	c countmap.Counter
}

func (t *tallyCounter) reset(in Input) { t.c.Reset(in.IDSpace()) }

func (t *tallyCounter) process(in Input, e uint32, s int, _ bool, pr *pruneState, yield func(f uint32, c int32)) {
	t.c.Clear()
	for _, v := range in.Incidence(e) { // Alg 1, line 9
		for _, f := range in.EdgesOf(v) { // line 10: (i < j)
			if f > e && pr.ok(in, f, s) {
				t.c.Inc(f, 1) // line 11
			}
		}
	}
	t.c.Range(func(f uint32, c int32) { // lines 12-14
		if int(c) >= s && !pr.connected(e, f) {
			yield(f, c)
		}
	})
}

// intersectionCounter implements the set-intersection strategy: collect the
// candidate neighbors once (deduplicated with an epoch-stamped array, so no
// per-call clearing), then sorted-merge intersect each candidate's incidence
// list with e's, short-circuiting at s unless an exact count is required.
type intersectionCounter struct {
	stamp []uint32
	cand  []uint32
	epoch uint32
}

func (ic *intersectionCounter) reset(in Input) {
	if n := in.IDSpace(); n > len(ic.stamp) {
		ic.stamp = make([]uint32, n)
		ic.epoch = 0
	}
}

func (ic *intersectionCounter) process(in Input, e uint32, s int, exact bool, pr *pruneState, yield func(f uint32, c int32)) {
	ic.epoch++
	if ic.epoch == 0 { // stamp wraparound: hard reset
		for i := range ic.stamp {
			ic.stamp[i] = 0
		}
		ic.epoch = 1
	}
	ic.cand = ic.cand[:0]
	re := in.Incidence(e)
	for _, v := range re {
		for _, f := range in.EdgesOf(v) {
			if f <= e || ic.stamp[f] == ic.epoch || !pr.ok(in, f, s) {
				continue
			}
			ic.stamp[f] = ic.epoch
			ic.cand = append(ic.cand, f)
		}
	}
	for _, f := range ic.cand {
		if pr.connected(e, f) {
			continue // already one s-component; the merge would be a no-op
		}
		var c int
		var ok bool
		if exact {
			c, ok = countCommonExact(re, in.Incidence(f), s)
		} else {
			c, ok = countCommonGE(re, in.Incidence(f), s)
		}
		if ok {
			yield(f, int32(c))
		}
	}
}

// newCounter constructs a fresh counter of the resolved (non-Auto) kind.
func newCounter(kind Counter) overlapCounter {
	switch kind {
	case DenseCounter:
		return &tallyCounter{c: countmap.NewDense(0)}
	case IntersectionCounter:
		return &intersectionCounter{}
	default:
		return &tallyCounter{c: countmap.New(64)}
	}
}

// counterKey is the arena key a counter kind's scratch is recycled under.
func counterKey(kind Counter) string {
	switch kind {
	case DenseCounter:
		return "slinegraph.counter.dense"
	case IntersectionCounter:
		return "slinegraph.counter.isect"
	default:
		return "slinegraph.counter.hashmap"
	}
}

// grabCounter fetches a reusable counter of the given kind from worker w's
// arena on eng, falling back to a fresh one. Runs stash counters back with
// stashCounter so repeated constructions on one engine stop allocating
// their hash tables and stamp arrays.
func grabCounter(eng *parallel.Engine, w int, kind Counter) overlapCounter {
	if v, ok := eng.Grab(w, counterKey(kind)); ok {
		return v.(overlapCounter)
	}
	return newCounter(kind)
}

// stashCounter returns a counter to worker w's arena for reuse.
func stashCounter(eng *parallel.Engine, w int, kind Counter, c overlapCounter) {
	if c == nil {
		return
	}
	eng.Stash(w, counterKey(kind), c)
}

// counterTLS lazily binds one arena counter per worker; release returns every
// bound counter to the arenas once the construction's loops are done.
func counterTLS(eng *parallel.Engine, kind Counter) (tls *parallel.TLS[overlapCounter], release func()) {
	tls = parallel.NewTLSFor(eng, func() overlapCounter { return nil })
	release = func() {
		tls.Each(func(w int, v *overlapCounter) { stashCounter(eng, w, kind, *v) })
	}
	return tls, release
}

// getCounter returns worker w's counter from tls, binding one from the arena
// (reset for in's ID space) on first use.
func getCounter(eng *parallel.Engine, tls *parallel.TLS[overlapCounter], w int, kind Counter, in Input) overlapCounter {
	cp := tls.Get(w)
	if *cp == nil {
		*cp = grabCounter(eng, w, kind)
		(*cp).reset(in)
	}
	return *cp
}

// denseIDSpaceMax is the largest ID space AutoCounter gives the dense counter,
// whose arrays cost 8 B per ID per worker: 32 MiB a worker at the bound.
const denseIDSpaceMax = 4 << 20

// resolveAxes turns Auto/Default axis values into concrete ones:
//
//   - Counter: the dense array up to denseIDSpaceMax IDs, the hashmap
//     beyond — measured, not modelled: no threshold run in EXPERIMENTS.md
//     has another counter ahead of dense by more than noise. Intersection
//     (the HiPC'21 heuristic) runs only when the caller pins it.
//   - Schedule: a relabel order or a skewed degree distribution
//     (max ≥ 8 × mean, from Options.Stats or else a scan on eng) begs for
//     the dynamic queue's load rebalancing; otherwise the blocked schedule
//     wins on scheduling overhead.
func resolveAxes(eng *parallel.Engine, in Input, o Options) (Counter, Schedule) {
	ctr, sched := o.Counter, o.Schedule
	if ctr == AutoCounter {
		ctr = HashmapCounter
		if in.IDSpace() <= denseIDSpaceMax {
			ctr = DenseCounter
		}
	}
	if sched == AutoSchedule {
		st := o.Stats
		if st == nil {
			scanned := ComputeDegreeStats(eng, in)
			st = &scanned
		}
		if o.Relabel != sparse.NoOrder || float64(st.Max) >= 8*st.Mean {
			return ctr, QueueSchedule
		}
	}
	if sched == DefaultSchedule || sched == AutoSchedule {
		sched = BlockedSchedule
	}
	return ctr, sched
}

// sortByDegree stably sorts ids by hyperedge degree per ord (NoOrder leaves
// the slice untouched): the paper's relabel-by-degree without any physical
// CSR relabeling — only the work order changes, the queue contents or the
// static schedules' iteration space alike.
func sortByDegree(ids []uint32, in Input, ord sparse.Order) []uint32 {
	switch ord {
	case sparse.Ascending:
		sort.SliceStable(ids, func(a, b int) bool {
			return in.EdgeDegree(ids[a]) < in.EdgeDegree(ids[b])
		})
	case sparse.Descending:
		sort.SliceStable(ids, func(a, b int) bool {
			return in.EdgeDegree(ids[a]) > in.EdgeDegree(ids[b])
		})
	}
	return ids
}

// construct is the kernel body shared by every construction algorithm: order
// the hyperedge IDs, distribute them per the schedule, and run the counter
// strategy on each, yielding (worker, e, f, count) for every s-overlapping
// pair with f > e. Each surviving pair is emitted exactly once. When exact
// is set the count is the true |e ∩ f|; otherwise counters may short-circuit
// at s. Returns eng.Err() so callers surface mid-run cancellation.
func construct(eng *parallel.Engine, in Input, s int, o Options, exact bool, emit func(w int, e, f uint32, c int32)) error {
	ids := in.EdgeIDs()
	// Axis 4 first: the prefiltered work span feeds the schedule.
	pr, ids := buildPrune(eng, in, s, o, ids)
	if err := eng.Err(); err != nil {
		return err
	}
	ctr, sched := resolveAxes(eng, in, o)
	ids = sortByDegree(ids, in, o.Relabel)
	tls, release := counterTLS(eng, ctr)
	body := func(w int, e uint32) {
		if !pr.ok(in, e, s) { // Alg 1, line 6 (pre-checked under the prefilter)
			return
		}
		cnt := getCounter(eng, tls, w, ctr, in)
		cnt.process(in, e, s, exact, pr, func(f uint32, c int32) { emit(w, e, f, c) })
	}
	switch sched {
	case QueueSchedule:
		parallel.Drain(eng, parallel.NewWorkQueueFor(eng, ids), body)
	case CyclicSchedule:
		eng.ForCyclic(eng.Cyclic(0, len(ids), 0), func(w, start, end, stride int) {
			for i := start; i < end; i += stride {
				body(w, ids[i])
			}
		})
	default:
		eng.For(eng.Blocked(0, len(ids)), func(w, lo, hi int) {
			for i := lo; i < hi; i++ {
				body(w, ids[i])
			}
		})
	}
	release()
	return eng.Err()
}

// countCommonExact counts |a ∩ b| of two sorted slices exactly, pruning only
// when the remaining elements cannot reach s. Returns (count, count >= s) —
// the exact-mode sibling of countCommonGE.
func countCommonExact(a, b []uint32, s int) (int, bool) {
	i, j, c := 0, 0, 0
	for i < len(a) && j < len(b) {
		if c < s && c+min(len(a)-i, len(b)-j) < s {
			return c, false
		}
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			c++
			i++
			j++
		}
	}
	return c, c >= s
}
