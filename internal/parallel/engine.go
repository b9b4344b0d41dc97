package parallel

import (
	"context"
	"sync"
)

// Engine is an explicit execution context for the algorithm layers: an
// owned (or shared) work-stealing pool, per-worker scratch arenas that
// persist across calls, and an optional context.Context observed at grain
// boundaries. It plays the role a scoped tbb::global_control plus
// task_arena plays in the C++ NWHy framework — except the handle is
// explicit, so two concurrent computations can run under different thread
// budgets, deadlines, and scratch pools without racing on process-global
// state.
//
// Engines are cheap handles: WithContext derives a new handle sharing the
// pool and arenas. An Engine obtained from NewEngine owns its pool and must
// be Closed; SharedEngine returns the process-wide engine backed by the
// default pool, which is never closed.
type Engine struct {
	sh  *engineShared
	ctx context.Context // nil = never cancelled
}

// engineShared is the state common to every handle derived from one engine:
// the pool (nil = route to the process default pool, so the SetNumThreads
// compat shim keeps working) and the per-worker scratch arenas.
type engineShared struct {
	pool  *Pool
	owned bool

	mu     sync.Mutex
	arenas []*arena
}

// arena is one worker's scratch free-lists. Access is guarded by a
// per-arena mutex so buffers may be grabbed inside loop bodies and stashed
// back from the coordinating goroutine without racing a concurrent
// computation sharing the engine.
type arena struct {
	mu   sync.Mutex
	u32  [][]uint32
	objs map[string][]any
}

// NewEngine creates an engine with an owned pool of workers threads
// (workers < 1 means GOMAXPROCS). Close it when done.
func NewEngine(workers int) *Engine {
	return &Engine{sh: &engineShared{pool: New(workers), owned: true}}
}

var (
	sharedEngineOnce sync.Once
	sharedEngine     *Engine
)

// SharedEngine returns the process-wide engine backed by the default pool.
// It is the engine compatibility entry points bind when the caller does not
// supply one; SetNumWorkers resizes the pool underneath it.
func SharedEngine() *Engine {
	sharedEngineOnce.Do(func() { sharedEngine = &Engine{sh: &engineShared{}} })
	return sharedEngine
}

// Close shuts down an owned pool. It is a no-op for the shared engine and
// for handles derived from it. Close must not be called while work is in
// flight on the engine.
func (e *Engine) Close() {
	if e.sh.owned && e.sh.pool != nil {
		e.sh.pool.Close()
	}
}

// WithContext derives a handle that shares this engine's pool and scratch
// arenas but observes ctx: parallel loops started from the derived handle
// stop scheduling new grains once ctx is cancelled, and Err reports
// ctx.Err().
func (e *Engine) WithContext(ctx context.Context) *Engine {
	return &Engine{sh: e.sh, ctx: ctx}
}

// Detach returns a handle on the same pool with no bound context — the
// inverse of WithContext. It is for the boundary where a request- or
// boot-bound engine constructs state that must outlive its deadline
// (serving handles, caches): build on the bound engine, rebind the result
// to the detached one.
func (e *Engine) Detach() *Engine {
	if e.ctx == nil {
		return e
	}
	return &Engine{sh: e.sh}
}

// Context returns the bound context (context.Background() if none).
func (e *Engine) Context() context.Context {
	if e.ctx != nil {
		return e.ctx
	}
	return context.Background()
}

// Err reports the bound context's error: nil while live, the cancellation
// cause once cancelled. Kernels return this after observing an aborted
// loop.
func (e *Engine) Err() error {
	if e.ctx == nil {
		return nil
	}
	return e.ctx.Err()
}

// Cancelled reports whether the bound context has been cancelled. Checked
// at grain boundaries by every loop driver.
func (e *Engine) Cancelled() bool {
	return e.ctx != nil && e.ctx.Err() != nil
}

// pool resolves the pool this engine schedules on.
func (e *Engine) pool() *Pool {
	if e.sh.pool != nil {
		return e.sh.pool
	}
	return Default()
}

// NumWorkers reports the engine's worker count.
func (e *Engine) NumWorkers() int { return e.pool().NumWorkers() }

// autoGrainFor sizes a grain to give workers about 8 chunks each.
func autoGrainFor(n, workers int) int {
	g := n / (8 * workers)
	if g < 1 {
		g = 1
	}
	return g
}

// Blocked returns a BlockedRange over [begin, end) with a grain sized for
// this engine's worker count.
func (e *Engine) Blocked(begin, end int) BlockedRange {
	return BlockedRange{Begin: begin, End: end, Grain: autoGrainFor(end-begin, e.NumWorkers())}
}

// For runs body over the blocked range on this engine. Cancellation is
// observed at grain boundaries: once the bound context is cancelled no
// further chunk executes (chunks already running finish). Callers detect an
// aborted loop with Err. If body panics, remaining chunks are skipped and
// the first panic is rethrown on the calling goroutine once in-flight
// chunks finish — the engine and its arenas stay usable afterwards.
func (e *Engine) For(r BlockedRange, body func(worker, lo, hi int)) {
	if r.Len() <= 0 || e.Cancelled() {
		return
	}
	if r.Grain < 1 {
		r.Grain = autoGrainFor(r.Len(), e.NumWorkers())
	}
	p := e.pool()
	var box panicBox
	var wg sync.WaitGroup
	wg.Add(1)
	p.submit(task{wg: &wg, fn: func(w int) { e.forBlocked(p, w, r, body, &wg, &box) }})
	wg.Wait()
	box.rethrow()
}

func (e *Engine) forBlocked(p *Pool, w int, r BlockedRange, body func(worker, lo, hi int), wg *sync.WaitGroup, box *panicBox) {
	for r.Divisible() {
		if e.Cancelled() || box.tripped.Load() {
			return
		}
		left, right := r.Split()
		wg.Add(1)
		r = left
		p.spawn(w, task{wg: wg, fn: func(w2 int) { e.forBlocked(p, w2, right, body, wg, box) }})
	}
	if e.Cancelled() || box.tripped.Load() {
		return
	}
	box.guard(func() { body(w, r.Begin, r.End) })
}

// ForN runs body over [0, n) with automatic grain.
func (e *Engine) ForN(n int, body func(worker, lo, hi int)) {
	e.For(e.Blocked(0, n), body)
}

// ForEach runs body once per index of [0, n).
func (e *Engine) ForEach(n int, body func(i int)) {
	e.ForN(n, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			body(i)
		}
	})
}

// ReduceWith computes a parallel reduction over [0, n) on engine e. join
// must be associative; combination order is unspecified. If the engine is
// cancelled mid-loop the unprocessed chunks are skipped — callers must
// check e.Err() before trusting the value.
func ReduceWith[T any](e *Engine, n int, identity T, mapFn func(lo, hi int, acc T) T, join func(a, b T) T) T {
	partials := make([]T, e.NumWorkers())
	seen := make([]bool, e.NumWorkers())
	e.ForN(n, func(w, lo, hi int) {
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

// NewTLSFor creates per-worker storage sized for engine e's pool.
func NewTLSFor[T any](e *Engine, init func() T) *TLS[T] {
	return &TLS[T]{slots: make([]tlsSlot[T], e.NumWorkers()), init: init}
}

// arena returns worker w's scratch arena, growing the table on demand (the
// shared engine's worker count can change via SetNumWorkers).
func (e *Engine) arena(w int) *arena {
	sh := e.sh
	sh.mu.Lock()
	for len(sh.arenas) <= w {
		sh.arenas = append(sh.arenas, &arena{})
	}
	a := sh.arenas[w]
	sh.mu.Unlock()
	return a
}

// GrabU32 pops a reusable uint32 buffer (length 0, capacity retained from
// earlier calls) from worker w's arena, or returns nil if none is free.
// Kernels use these for frontier buffers so steady-state traversals stop
// allocating.
func (e *Engine) GrabU32(w int) []uint32 {
	a := e.arena(w)
	a.mu.Lock()
	defer a.mu.Unlock()
	if n := len(a.u32); n > 0 {
		buf := a.u32[n-1]
		a.u32 = a.u32[:n-1]
		return buf[:0]
	}
	return nil
}

// StashU32 returns a buffer to worker w's arena for reuse by later calls.
func (e *Engine) StashU32(w int, buf []uint32) {
	if cap(buf) == 0 {
		return
	}
	a := e.arena(w)
	a.mu.Lock()
	a.u32 = append(a.u32, buf[:0])
	a.mu.Unlock()
}

// Grab pops a reusable scratch object stashed under key in worker w's
// arena. The caller owns the object until it Stashes it back.
func (e *Engine) Grab(w int, key string) (any, bool) {
	a := e.arena(w)
	a.mu.Lock()
	defer a.mu.Unlock()
	free := a.objs[key]
	if n := len(free); n > 0 {
		v := free[n-1]
		a.objs[key] = free[:n-1]
		return v, true
	}
	return nil, false
}

// Stash returns a scratch object to worker w's arena under key.
func (e *Engine) Stash(w int, key string, v any) {
	a := e.arena(w)
	a.mu.Lock()
	if a.objs == nil {
		a.objs = map[string][]any{}
	}
	a.objs[key] = append(a.objs[key], v)
	a.mu.Unlock()
}
