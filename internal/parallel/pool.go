// Package parallel provides the shared-memory parallel runtime that the rest
// of NWHy-Go is built on. It plays the role oneAPI Threading Building Blocks
// (oneTBB) plays in the C++ NWHy framework: a work-stealing scheduler (Pool)
// and one executor on top of it (Engine), whose loops — blocked ranges, the
// dynamic work queue, reductions, the radix sort — are the only way work
// reaches a pool.
//
// The scheduler is a classic work-stealing design: every worker owns a deque
// of tasks; a worker pushes locally spawned tasks onto its own deque and pops
// them LIFO (for locality), while idle workers steal FIFO from random victims
// (for load balance). Parallel loops split their range recursively, spawning
// one half and descending into the other, so skewed workloads rebalance
// dynamically — the property the NWHy paper relies on for hypergraphs with
// skewed degree distributions.
package parallel

import (
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
)

// A task is one unit of schedulable work. The worker executing it passes its
// own ID so the task can use per-worker (thread-local) state.
type task struct {
	fn func(worker int)
	wg *sync.WaitGroup
}

// taskRing is a growable circular buffer of tasks supporting O(1) push/pop
// at the back and O(1) pop at the front. Both the worker deques and the
// injector queue dequeue from the front (steal / FIFO submit order), which
// with a plain slice cost an O(n) copy per dequeue.
type taskRing struct {
	buf  []task
	head int // index of the front element
	n    int // number of live elements
}

func (r *taskRing) len() int { return r.n }

// pushBack appends t, doubling the buffer when full.
func (r *taskRing) pushBack(t task) {
	if r.n == len(r.buf) {
		r.grow()
	}
	r.buf[(r.head+r.n)%len(r.buf)] = t
	r.n++
}

// popBack removes the most recently pushed task (LIFO end).
func (r *taskRing) popBack() (task, bool) {
	if r.n == 0 {
		return task{}, false
	}
	i := (r.head + r.n - 1) % len(r.buf)
	t := r.buf[i]
	r.buf[i] = task{}
	r.n--
	return t, true
}

// popFront removes the oldest task (FIFO end).
func (r *taskRing) popFront() (task, bool) {
	if r.n == 0 {
		return task{}, false
	}
	t := r.buf[r.head]
	r.buf[r.head] = task{}
	r.head = (r.head + 1) % len(r.buf)
	r.n--
	return t, true
}

func (r *taskRing) grow() {
	nb := make([]task, max(2*len(r.buf), 8))
	for i := 0; i < r.n; i++ {
		nb[i] = r.buf[(r.head+i)%len(r.buf)]
	}
	r.buf = nb
	r.head = 0
}

// worker holds one scheduler participant's local deque.
type worker struct {
	mu    sync.Mutex
	deque taskRing
	rng   *rand.Rand
}

// push adds t to the bottom (LIFO end) of the deque.
func (w *worker) push(t task) {
	w.mu.Lock()
	w.deque.pushBack(t)
	w.mu.Unlock()
}

// pop removes a task from the bottom (LIFO end). Used by the owner.
func (w *worker) pop() (task, bool) {
	w.mu.Lock()
	t, ok := w.deque.popBack()
	w.mu.Unlock()
	return t, ok
}

// steal removes a task from the top (FIFO end). Used by thieves.
func (w *worker) steal() (task, bool) {
	w.mu.Lock()
	t, ok := w.deque.popFront()
	w.mu.Unlock()
	return t, ok
}

// Pool is a fixed-size work-stealing scheduler. The zero value is not usable;
// construct one with New. A Pool must be Closed when no longer needed unless
// it is the shared default pool.
type Pool struct {
	workers []*worker

	// injector receives tasks submitted from outside the pool's workers.
	injectMu sync.Mutex
	inject   taskRing

	// pending counts tasks that are queued somewhere but not yet taken.
	// Workers park only when pending is zero.
	pending atomic.Int64
	// submitted counts the tasks ever handed in from outside (see Submitted).
	submitted atomic.Int64

	parkMu  sync.Mutex
	parked  *sync.Cond
	nparked atomic.Int32

	closed atomic.Bool
	done   sync.WaitGroup
}

// New creates a pool with n workers. n < 1 is treated as runtime.GOMAXPROCS(0).
func New(n int) *Pool {
	if n < 1 {
		n = runtime.GOMAXPROCS(0)
	}
	p := &Pool{workers: make([]*worker, n)}
	p.parked = sync.NewCond(&p.parkMu)
	for i := range p.workers {
		p.workers[i] = &worker{rng: rand.New(rand.NewSource(int64(i)*2654435761 + 1))}
	}
	p.done.Add(n)
	for i := 0; i < n; i++ {
		go p.run(i)
	}
	return p
}

// NumWorkers reports the number of workers in the pool.
func (p *Pool) NumWorkers() int { return len(p.workers) }

// Close shuts the pool down. It must not be called while work is in flight.
func (p *Pool) Close() {
	p.closed.Store(true)
	p.parkMu.Lock()
	p.parked.Broadcast()
	p.parkMu.Unlock()
	p.done.Wait()
}

// Submitted reports how many tasks the pool has been handed from outside its
// workers: one per Engine.For loop, one per worker of a Drain. A computation
// bound to another pool leaves it unchanged.
func (p *Pool) Submitted() int64 { return p.submitted.Load() }

// submit enqueues a task from outside the pool.
func (p *Pool) submit(t task) {
	p.submitted.Add(1)
	p.injectMu.Lock()
	p.inject.pushBack(t)
	p.injectMu.Unlock()
	p.pending.Add(1)
	p.wake()
}

// spawn enqueues a task onto worker w's own deque (called from inside tasks).
func (p *Pool) spawn(w int, t task) {
	p.workers[w].push(t)
	p.pending.Add(1)
	p.wake()
}

// wake unparks a worker if any are parked. The pending increment must happen
// before wake is called: a parker increments nparked before re-checking
// pending (both atomically), so either the parker sees the new pending count
// or we see its nparked increment — never neither.
func (p *Pool) wake() {
	if p.nparked.Load() > 0 {
		p.parkMu.Lock()
		p.parked.Broadcast()
		p.parkMu.Unlock()
	}
}

// takeInjected removes one task from the injector queue.
func (p *Pool) takeInjected() (task, bool) {
	p.injectMu.Lock()
	t, ok := p.inject.popFront()
	p.injectMu.Unlock()
	return t, ok
}

// find locates a runnable task for worker id, or returns false.
func (p *Pool) find(id int) (task, bool) {
	if t, ok := p.workers[id].pop(); ok {
		return t, true
	}
	if t, ok := p.takeInjected(); ok {
		return t, true
	}
	// Steal: try every other worker once, starting at a random victim.
	n := len(p.workers)
	if n > 1 {
		start := p.workers[id].rng.Intn(n)
		for k := 0; k < n; k++ {
			v := (start + k) % n
			if v == id {
				continue
			}
			if t, ok := p.workers[v].steal(); ok {
				return t, true
			}
		}
	}
	return task{}, false
}

// run is the worker main loop.
func (p *Pool) run(id int) {
	defer p.done.Done()
	for {
		if t, ok := p.find(id); ok {
			p.pending.Add(-1)
			t.fn(id)
			if t.wg != nil {
				t.wg.Done()
			}
			continue
		}
		p.parkMu.Lock()
		p.nparked.Add(1)
		for p.pending.Load() == 0 && !p.closed.Load() {
			p.parked.Wait()
		}
		p.nparked.Add(-1)
		closed := p.closed.Load()
		p.parkMu.Unlock()
		if closed && p.pending.Load() == 0 {
			return
		}
	}
}

// panicBox captures the first panic raised by any task of one structured
// parallel call (Engine.For or Drain) so the coordinating goroutine can
// rethrow it after wg.Wait. Without it a body panic would unwind a pool
// worker's stack and tear down the whole process far from the call that
// caused it — and leave the call's WaitGroup waiting forever. Later panics
// of the same call are swallowed; sibling chunks are skipped once the box
// has tripped.
type panicBox struct {
	tripped atomic.Bool
	mu      sync.Mutex
	val     any
}

// guard runs fn, capturing a panic into the box instead of letting it
// unwind the worker. The capture happens-before the task's wg.Done, so the
// coordinator's read after wg.Wait is ordered.
func (b *panicBox) guard(fn func()) {
	defer func() {
		if r := recover(); r != nil {
			b.mu.Lock()
			if !b.tripped.Load() {
				b.val = r
				b.tripped.Store(true)
			}
			b.mu.Unlock()
		}
	}()
	fn()
}

// rethrow re-raises the captured panic on the calling goroutine, if any.
func (b *panicBox) rethrow() {
	if b.tripped.Load() {
		panic(b.val)
	}
}

var (
	defaultMu   sync.Mutex
	defaultPool *Pool
)

// Default returns the shared process-wide pool, creating it on first use with
// GOMAXPROCS workers.
func Default() *Pool {
	defaultMu.Lock()
	defer defaultMu.Unlock()
	if defaultPool == nil {
		defaultPool = New(0)
	}
	return defaultPool
}

// SetNumWorkers replaces the default pool with one of n workers. It is how
// strong-scaling experiments vary the thread count, mirroring setting the
// oneTBB global_control concurrency limit. It must not be called while
// parallel work is running.
func SetNumWorkers(n int) {
	defaultMu.Lock()
	old := defaultPool
	defaultPool = New(n)
	defaultMu.Unlock()
	if old != nil {
		old.Close()
	}
}
