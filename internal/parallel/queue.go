package parallel

import (
	"sync"
	"sync/atomic"
)

// WorkQueue is the dynamic work-distribution adaptor of NWHy's queue-based
// algorithms, the sibling of BlockedRange: items are enqueued up front and
// workers repeatedly fetch fixed-size chunks with an atomic cursor until the
// queue drains. Unlike a splittable range, fetching is fully dynamic, so the load balances
// regardless of how work is distributed across items — the property the
// paper's Algorithms 1 and 2 rely on for skewed hyperedge degrees.
type WorkQueue[T any] struct {
	items  []T
	cursor atomic.Int64
	grain  int
}

// NewWorkQueue creates a queue over items fetched in chunks of grain
// (grain < 1 is clamped to 1).
func NewWorkQueue[T any](items []T, grain int) *WorkQueue[T] {
	if grain < 1 {
		grain = 1
	}
	return &WorkQueue[T]{items: items, grain: grain}
}

// NewWorkQueueFor creates a queue over items with a grain sized for eng's
// worker count: about 16 chunks per worker, so dynamic fetching amortizes the
// cursor contention while still rebalancing skew.
func NewWorkQueueFor[T any](eng *Engine, items []T) *WorkQueue[T] {
	g := len(items) / (16 * eng.NumWorkers())
	return NewWorkQueue(items, g)
}

// Next returns the next chunk of work, or nil when the queue is drained.
func (q *WorkQueue[T]) Next() []T {
	lo := q.cursor.Add(int64(q.grain)) - int64(q.grain)
	if lo >= int64(len(q.items)) {
		return nil
	}
	hi := lo + int64(q.grain)
	if hi > int64(len(q.items)) {
		hi = int64(len(q.items))
	}
	return q.items[lo:hi]
}

// Len reports the number of enqueued items.
func (q *WorkQueue[T]) Len() int { return len(q.items) }

// Drain runs body over every queue item using all of eng's workers. Like
// Engine.For it is cancellable and panic-safe: a cancelled engine stops
// fetching at the next chunk boundary, leaving the rest of the queue
// unprocessed (callers surface eng.Err()), and if body panics the remaining
// chunks are skipped and the first panic is rethrown on the calling
// goroutine once in-flight chunks finish — the engine and its arenas stay
// usable afterwards.
func Drain[T any](eng *Engine, q *WorkQueue[T], body func(worker int, item T)) {
	if q.Len() == 0 || eng.Cancelled() {
		return
	}
	p := eng.pool()
	var box panicBox
	var wg sync.WaitGroup
	n := p.NumWorkers()
	wg.Add(n)
	for w := 0; w < n; w++ {
		p.submit(task{wg: &wg, fn: func(worker int) {
			for !eng.Cancelled() && !box.tripped.Load() {
				chunk := q.Next()
				if chunk == nil {
					return
				}
				box.guard(func() {
					for _, it := range chunk {
						body(worker, it)
					}
				})
			}
		}})
	}
	wg.Wait()
	box.rethrow()
}
