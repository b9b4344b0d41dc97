package parallel

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"
)

func TestPoolSingleWorker(t *testing.T) {
	eng := NewEngine(1)
	defer eng.Close()
	var n atomic.Int32
	eng.For(eng.Blocked(0, 1000), func(_, lo, hi int) {
		n.Add(int32(hi - lo))
	})
	if n.Load() != 1000 {
		t.Fatalf("covered %d of 1000", n.Load())
	}
}

func TestForCoversEveryIndexOnce(t *testing.T) {
	eng := NewEngine(8)
	defer eng.Close()
	const n = 100003
	counts := make([]int32, n)
	eng.For(eng.Blocked(0, n), func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			atomic.AddInt32(&counts[i], 1)
		}
	})
	for i, c := range counts {
		if c != 1 {
			t.Fatalf("index %d visited %d times", i, c)
		}
	}
}

func TestForEmptyRange(t *testing.T) {
	eng := NewEngine(2)
	defer eng.Close()
	called := false
	eng.For(eng.Blocked(5, 5), func(_, lo, hi int) { called = true })
	if called {
		t.Fatal("body called for empty range")
	}
	eng.For(eng.Blocked(7, 3), func(_, lo, hi int) { called = true })
	if called {
		t.Fatal("body called for inverted range")
	}
}

func TestForGrainRespected(t *testing.T) {
	eng := NewEngine(4)
	defer eng.Close()
	var mu sync.Mutex
	sizes := []int{}
	eng.For(BlockedGrain(0, 100, 10), func(_, lo, hi int) {
		mu.Lock()
		sizes = append(sizes, hi-lo)
		mu.Unlock()
	})
	total := 0
	for _, s := range sizes {
		if s > 10 {
			t.Errorf("chunk size %d exceeds grain 10: ranges split while Len > Grain, so leaves must be <= Grain", s)
		}
		total += s
	}
	if total != 100 {
		t.Fatalf("total coverage %d != 100", total)
	}
}

func TestForWorkerIDsInRange(t *testing.T) {
	eng := NewEngine(3)
	defer eng.Close()
	eng.For(eng.Blocked(0, 10000), func(w, lo, hi int) {
		if w < 0 || w >= 3 {
			t.Errorf("worker id %d out of range", w)
		}
	})
}

func TestSkewedWorkloadBalances(t *testing.T) {
	// One index carries nearly all the work; the scheduler must still finish
	// promptly because other workers steal the remaining chunks.
	eng := NewEngine(4)
	defer eng.Close()
	const n = 4096
	start := time.Now()
	var total atomic.Int64
	eng.For(BlockedGrain(0, n, 1), func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			work := 1
			if i == 0 {
				work = 200000
			}
			s := 0
			for k := 0; k < work; k++ {
				s += k
			}
			total.Add(int64(s % 7))
		}
	})
	_ = total.Load()
	if elapsed := time.Since(start); elapsed > 30*time.Second {
		t.Fatalf("skewed workload took %v; scheduler not balancing", elapsed)
	}
}

func TestReduceSum(t *testing.T) {
	eng := NewEngine(4)
	defer eng.Close()
	const n = 100000
	got := ReduceWith(eng, n, 0,
		func(lo, hi, acc int) int {
			for i := lo; i < hi; i++ {
				acc += i
			}
			return acc
		},
		func(a, b int) int { return a + b })
	want := n * (n - 1) / 2
	if got != want {
		t.Fatalf("ReduceWith sum = %d, want %d", got, want)
	}
}

func TestReduceEmpty(t *testing.T) {
	eng := NewEngine(2)
	defer eng.Close()
	got := ReduceWith(eng, 0, 42, func(lo, hi, acc int) int { return acc + 1 }, func(a, b int) int { return a + b })
	if got != 42 {
		t.Fatalf("ReduceWith over empty range = %d, want identity 42", got)
	}
}

func TestForEachCovers(t *testing.T) {
	const n = 1000
	counts := make([]int32, n)
	eng := NewEngine(4)
	defer eng.Close()
	eng.ForEach(n, func(i int) { atomic.AddInt32(&counts[i], 1) })
	for i, c := range counts {
		if c != 1 {
			t.Fatalf("index %d visited %d times", i, c)
		}
	}
}

func TestSetNumWorkers(t *testing.T) {
	shared := SharedEngine()
	SetNumWorkers(2)
	if shared.NumWorkers() != 2 {
		t.Fatalf("NumWorkers = %d, want 2", shared.NumWorkers())
	}
	SetNumWorkers(5)
	if shared.NumWorkers() != 5 {
		t.Fatalf("NumWorkers = %d, want 5", shared.NumWorkers())
	}
	// The shared engine still works after the swap.
	var n atomic.Int32
	shared.ForEach(100, func(int) { n.Add(1) })
	if n.Load() != 100 {
		t.Fatalf("pool broken after SetNumWorkers: %d", n.Load())
	}
}

func TestTLSPerWorkerIsolation(t *testing.T) {
	eng := NewEngine(4)
	defer eng.Close()
	tls := NewTLSFor(eng, func() []int { return nil })
	eng.For(BlockedGrain(0, 10000, 16), func(w, lo, hi int) {
		s := tls.Get(w)
		for i := lo; i < hi; i++ {
			*s = append(*s, i)
		}
	})
	seen := make([]bool, 10000)
	total := 0
	tls.All(func(v *[]int) {
		for _, i := range *v {
			if seen[i] {
				t.Fatalf("index %d appears in two TLS slots", i)
			}
			seen[i] = true
			total++
		}
	})
	if total != 10000 {
		t.Fatalf("TLS captured %d of 10000 items", total)
	}
}

func TestTLSInit(t *testing.T) {
	eng := NewEngine(2)
	defer eng.Close()
	tls := NewTLSFor(eng, func() int { return 7 })
	if *tls.Get(0) != 7 {
		t.Fatalf("TLS init not applied: %d", *tls.Get(0))
	}
	*tls.Get(0) = 9
	if *tls.Get(0) != 9 {
		t.Fatal("TLS slot not persistent")
	}
	count := 0
	tls.All(func(v *int) { count++ })
	if count != 1 {
		t.Fatalf("All visited %d slots, want 1 (only slot 0 touched)", count)
	}
}

// TestTLSSlotsApartByACacheLinePair pins the slot layout: bodies append
// through Get(w) once per item, so two workers' slice headers (or small
// accumulators) must never share a cache line or an adjacent-line pair.
func TestTLSSlotsApartByACacheLinePair(t *testing.T) {
	eng := NewEngine(2)
	defer eng.Close()
	apart := func(a, b unsafe.Pointer) uintptr { return uintptr(b) - uintptr(a) }
	bufs := NewTLSFor(eng, func() []uint32 { return nil })
	if d := apart(unsafe.Pointer(bufs.Get(0)), unsafe.Pointer(bufs.Get(1))); d < 128 {
		t.Fatalf("[]uint32 slots are %d bytes apart, want at least 128", d)
	}
	type acc struct{ total, max int }
	accs := NewTLSFor(eng, func() acc { return acc{} })
	if d := apart(unsafe.Pointer(accs.Get(0)), unsafe.Pointer(accs.Get(1))); d < 128 {
		t.Fatalf("small struct slots are %d bytes apart, want at least 128", d)
	}
}

func TestCloseIdle(t *testing.T) {
	eng := NewEngine(3)
	eng.ForN(2, func(int, int, int) {})
	done := make(chan struct{})
	go func() { eng.Close(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Close hung")
	}
}

func TestManySequentialParallelFors(t *testing.T) {
	// Regression guard against lost-wakeup bugs: many small rounds where
	// workers park and wake repeatedly.
	eng := NewEngine(4)
	defer eng.Close()
	for round := 0; round < 500; round++ {
		var n atomic.Int32
		eng.For(eng.Blocked(0, 37), func(_, lo, hi int) { n.Add(int32(hi - lo)) })
		if n.Load() != 37 {
			t.Fatalf("round %d: covered %d of 37", round, n.Load())
		}
	}
}

func TestEngineDetach(t *testing.T) {
	eng := NewEngine(2)
	defer eng.Close()
	// Detaching an unbound engine is the identity.
	if eng.Detach() != eng {
		t.Fatal("Detach of an unbound engine returned a new handle")
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	bound := eng.WithContext(ctx)
	if bound.Err() == nil {
		t.Fatal("bound engine does not observe the cancelled ctx")
	}
	d := bound.Detach()
	if err := d.Err(); err != nil {
		t.Fatalf("detached engine still observes the ctx: %v", err)
	}
	if d.NumWorkers() != eng.NumWorkers() {
		t.Fatal("detached engine is not on the same pool")
	}
	// The detached handle actually schedules work.
	var n atomic.Int32
	d.ForEach(8, func(int) { n.Add(1) })
	if n.Load() != 8 {
		t.Fatalf("ForEach on detached engine ran %d/8 grains", n.Load())
	}
}

func BenchmarkParallelFor(b *testing.B) {
	eng := NewEngine(4)
	defer eng.Close()
	data := make([]int64, 1<<20)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.For(eng.Blocked(0, len(data)), func(_, lo, hi int) {
			for k := lo; k < hi; k++ {
				data[k]++
			}
		})
	}
}

func BenchmarkWorkStealingSkewed(b *testing.B) {
	eng := NewEngine(4)
	defer eng.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.For(BlockedGrain(0, 1024, 1), func(_, lo, hi int) {
			for k := lo; k < hi; k++ {
				work := 10
				if k%128 == 0 {
					work = 10000
				}
				s := 0
				for w := 0; w < work; w++ {
					s += w
				}
				_ = s
			}
		})
	}
}
