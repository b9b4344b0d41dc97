package parallel

import "sync"

// BlockedRange is the analogue of tbb::blocked_range: a half-open interval
// [Begin, End) that parallel loops split recursively into contiguous chunks
// no smaller than Grain. Contiguous chunks give good cache behaviour but can
// load-imbalance badly when the per-index work is skewed and sorted (e.g. a
// degree-sorted hypergraph), which is why NWHy also offers cyclic ranges.
type BlockedRange struct {
	Begin, End int
	Grain      int
}

// Blocked returns a BlockedRange over [begin, end) with an automatic grain:
// small enough to give the scheduler ~8 chunks per worker to steal, but
// never below 1.
func Blocked(begin, end int) BlockedRange {
	return BlockedRange{Begin: begin, End: end, Grain: autoGrain(end - begin)}
}

// BlockedGrain returns a BlockedRange with an explicit grain size.
func BlockedGrain(begin, end, grain int) BlockedRange {
	if grain < 1 {
		grain = 1
	}
	return BlockedRange{Begin: begin, End: end, Grain: grain}
}

func autoGrain(n int) int {
	g := n / (8 * Default().NumWorkers())
	if g < 1 {
		g = 1
	}
	return g
}

// Len reports the number of indices in the range.
func (r BlockedRange) Len() int { return r.End - r.Begin }

// Divisible reports whether the range is worth splitting further.
func (r BlockedRange) Divisible() bool { return r.Len() > r.Grain }

// Split divides the range in half.
func (r BlockedRange) Split() (BlockedRange, BlockedRange) {
	mid := r.Begin + r.Len()/2
	a, b := r, r
	a.End = mid
	b.Begin = mid
	return a, b
}

// CyclicRange is NWHy's cyclic range adaptor: the index set
// {Begin + Offset, Begin + Offset + Stride, ...} below End. With Stride equal
// to the number of bins, bin k visits indices k, k+Stride, k+2*Stride, ... —
// interleaving high- and low-degree vertices across workers, the antidote to
// the blocked range's imbalance on degree-sorted inputs.
type CyclicRange struct {
	Begin, End int
	Offset     int
	Stride     int
	MaxStride  int
}

// Cyclic returns a CyclicRange over [begin, end) that splits into at most
// bins interleaved sub-ranges. bins < 1 defaults to 4x the default pool size.
func Cyclic(begin, end, bins int) CyclicRange {
	if bins < 1 {
		bins = 4 * Default().NumWorkers()
	}
	return CyclicRange{Begin: begin, End: end, Offset: 0, Stride: 1, MaxStride: bins}
}

// Divisible reports whether the range can be split into two interleaved halves.
func (r CyclicRange) Divisible() bool {
	return r.Stride*2 <= r.MaxStride && r.Begin+r.Offset+r.Stride < r.End
}

// Split divides the range into even and odd interleavings: (offset, 2*stride)
// and (offset+stride, 2*stride).
func (r CyclicRange) Split() (CyclicRange, CyclicRange) {
	a, b := r, r
	a.Stride = r.Stride * 2
	b.Stride = r.Stride * 2
	b.Offset = r.Offset + r.Stride
	return a, b
}

// For runs body over the blocked range in parallel. body receives the worker
// ID executing the chunk (for per-worker state) and the chunk bounds [lo, hi).
// If body panics, remaining chunks are skipped and the first panic is
// rethrown on the calling goroutine once in-flight chunks finish.
func (p *Pool) For(r BlockedRange, body func(worker, lo, hi int)) {
	if r.Len() <= 0 {
		return
	}
	if r.Grain < 1 {
		r.Grain = autoGrain(r.Len())
	}
	var box panicBox
	var wg sync.WaitGroup
	wg.Add(1)
	p.submit(task{wg: &wg, fn: func(w int) { p.forBlocked(w, r, body, &wg, &box) }})
	wg.Wait()
	box.rethrow()
}

func (p *Pool) forBlocked(w int, r BlockedRange, body func(worker, lo, hi int), wg *sync.WaitGroup, box *panicBox) {
	for r.Divisible() {
		if box.tripped.Load() {
			return
		}
		left, right := r.Split()
		wg.Add(1)
		r = left
		p.spawn(w, task{wg: wg, fn: func(w2 int) { p.forBlocked(w2, right, body, wg, box) }})
	}
	if box.tripped.Load() {
		return
	}
	box.guard(func() { body(w, r.Begin, r.End) })
}

// ForCyclic runs body over the cyclic range in parallel. body receives the
// worker ID and a strided sub-range: it must visit i = start; i < end;
// i += stride. Panics propagate like For's.
func (p *Pool) ForCyclic(r CyclicRange, body func(worker, start, end, stride int)) {
	if r.End-r.Begin <= 0 {
		return
	}
	var box panicBox
	var wg sync.WaitGroup
	wg.Add(1)
	p.submit(task{wg: &wg, fn: func(w int) { p.forCyclic(w, r, body, &wg, &box) }})
	wg.Wait()
	box.rethrow()
}

func (p *Pool) forCyclic(w int, r CyclicRange, body func(worker, start, end, stride int), wg *sync.WaitGroup, box *panicBox) {
	for r.Divisible() {
		if box.tripped.Load() {
			return
		}
		left, right := r.Split()
		wg.Add(1)
		r = left
		p.spawn(w, task{wg: wg, fn: func(w2 int) { p.forCyclic(w2, right, body, wg, box) }})
	}
	if box.tripped.Load() {
		return
	}
	box.guard(func() { body(w, r.Begin+r.Offset, r.End, r.Stride) })
}

// Adjacency is the minimal view of a CSR-like structure that the
// cyclic-neighbor range needs: a row count and per-row neighbor slices. It is
// satisfied by sparse.CSR and by graph.Graph.
type Adjacency interface {
	NumRows() int
	Row(i int) []uint32
}

// ForCyclicNeighbor is NWHy's cyclic neighbor range adaptor: like ForCyclic,
// but the body receives each vertex together with its neighborhood, saving
// the row lookup and making the iteration pattern of Listing 4 explicit.
func (p *Pool) ForCyclicNeighbor(g Adjacency, bins int, body func(worker, u int, neighbors []uint32)) {
	p.ForCyclic(Cyclic(0, g.NumRows(), bins), func(w, start, end, stride int) {
		for u := start; u < end; u += stride {
			body(w, u, g.Row(u))
		}
	})
}

// For runs body over [0, n) on the default pool with automatic grain.
func For(n int, body func(worker, lo, hi int)) {
	Default().For(Blocked(0, n), body)
}

// ForEach runs body once per index of [0, n) on the default pool.
func ForEach(n int, body func(i int)) {
	Default().For(Blocked(0, n), func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			body(i)
		}
	})
}

// Reduce computes a parallel reduction over [0, n): map produces a partial
// result for each chunk seeded with identity, and join combines partials.
// join must be associative; the order of combination is unspecified.
func Reduce[T any](n int, identity T, mapFn func(lo, hi int, acc T) T, join func(a, b T) T) T {
	p := Default()
	partials := make([]T, p.NumWorkers())
	seen := make([]bool, p.NumWorkers())
	p.For(Blocked(0, n), func(w, lo, hi int) {
		if !seen[w] {
			partials[w] = identity
			seen[w] = true
		}
		partials[w] = mapFn(lo, hi, partials[w])
	})
	acc := identity
	for w, ok := range seen {
		if ok {
			acc = join(acc, partials[w])
		}
	}
	return acc
}

// TLS holds one value per worker of a pool: the analogue of
// tbb::enumerable_thread_specific, used for per-thread edge-list buffers and
// work queues in the s-line-graph algorithms.
type TLS[T any] struct {
	slots []tlsSlot[T]
	init  func() T
}

// CacheLinePad is the padding, in bytes, that keeps what one worker writes
// in its loop out of the cache line — and out of the pair of lines the
// adjacent-line prefetcher moves together — that another worker's state
// lives in.
const CacheLinePad = 128

// tlsSlot is padded because loop bodies write through Get(w) —
// `*buf = append(*buf, x)` — once per item.
type tlsSlot[T any] struct {
	v    T
	used bool
	_    [CacheLinePad]byte
}

// NewTLS creates per-worker storage for pool p. init, if non-nil, lazily
// initializes a slot on first Get.
func NewTLS[T any](p *Pool, init func() T) *TLS[T] {
	return &TLS[T]{slots: make([]tlsSlot[T], p.NumWorkers()), init: init}
}

// Get returns a pointer to worker w's slot, initializing it on first use.
func (t *TLS[T]) Get(w int) *T {
	s := &t.slots[w]
	if !s.used {
		s.used = true
		if t.init != nil {
			s.v = t.init()
		}
	}
	return &s.v
}

// All invokes fn for each slot that was touched.
func (t *TLS[T]) All(fn func(v *T)) {
	t.Each(func(_ int, v *T) { fn(v) })
}

// Each invokes fn for each touched slot along with its worker id, so callers
// can return per-worker scratch to the matching engine arena.
func (t *TLS[T]) Each(fn func(w int, v *T)) {
	for w := range t.slots {
		if s := &t.slots[w]; s.used {
			fn(w, &s.v)
		}
	}
}

// FlattenTLS concatenates every touched per-worker buffer of tls into dst
// (reusing dst's capacity; pass nil to allocate fresh) and returns the
// result. It is the single merge path for per-worker append buffers: BFS
// next-frontiers, s-line edge lists, and every other fan-in of TLS slices
// go through it. If recycle is non-nil it is called with each worker's
// buffer after draining — typically Engine.StashU32, returning frontier
// buffers to the worker's scratch arena — and the slot is cleared so a
// recycled buffer cannot be aliased by a later round.
func FlattenTLS[T any](dst []T, tls *TLS[[]T], recycle func(w int, buf []T)) []T {
	dst = dst[:0]
	tls.Each(func(w int, v *[]T) {
		dst = append(dst, *v...)
		if recycle != nil {
			recycle(w, *v)
			*v = nil
		}
	})
	return dst
}
