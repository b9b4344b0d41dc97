package parallel

// BlockedRange is the analogue of tbb::blocked_range: a half-open interval
// [Begin, End) that parallel loops split recursively into contiguous chunks
// no smaller than Grain. Engine.Blocked sizes the grain for the engine's
// worker count; BlockedGrain fixes it.
type BlockedRange struct {
	Begin, End int
	Grain      int
}

// BlockedGrain returns a BlockedRange with an explicit grain size.
func BlockedGrain(begin, end, grain int) BlockedRange {
	if grain < 1 {
		grain = 1
	}
	return BlockedRange{Begin: begin, End: end, Grain: grain}
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
