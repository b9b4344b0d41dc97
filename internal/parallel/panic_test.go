package parallel

import (
	"sync/atomic"
	"testing"
)

// recoverValue runs fn and returns the value it panicked with (nil if it
// returned normally).
func recoverValue(fn func()) (v any) {
	defer func() { v = recover() }()
	fn()
	return nil
}

func TestPoolForPanicPropagates(t *testing.T) {
	eng := NewEngine(4)
	defer eng.Close()
	v := recoverValue(func() {
		eng.For(BlockedGrain(0, 1000, 1), func(_, lo, hi int) {
			for i := lo; i < hi; i++ {
				if i == 137 {
					panic("boom")
				}
			}
		})
	})
	if v != "boom" {
		t.Fatalf("recovered %v, want boom", v)
	}
	// The engine must remain fully usable after a captured panic.
	var count atomic.Int64
	eng.For(eng.Blocked(0, 1000), func(_, lo, hi int) { count.Add(int64(hi - lo)) })
	if count.Load() != 1000 {
		t.Fatalf("post-panic For covered %d indices, want 1000", count.Load())
	}
}

func TestEnginePanicDoesNotCorruptArena(t *testing.T) {
	eng := NewEngine(4)
	defer eng.Close()

	// Seed the arenas with reusable buffers.
	eng.ForN(eng.NumWorkers(), func(w, lo, hi int) {
		eng.StashU32(w, make([]uint32, 0, 64))
	})

	// A body grabs arena scratch and panics before stashing it back. The
	// panic must surface on the calling goroutine, and the engine and its
	// arenas must stay usable: the grabbed buffer is simply lost to GC,
	// never double-handed to another worker.
	v := recoverValue(func() {
		eng.ForN(64, func(w, lo, hi int) {
			buf := eng.GrabU32(w)
			buf = append(buf, uint32(lo))
			_ = buf
			panic("arena boom")
		})
	})
	if v != "arena boom" {
		t.Fatalf("recovered %v, want arena boom", v)
	}

	// Steady-state grab/stash traffic still works after the panic.
	var total atomic.Int64
	for round := 0; round < 8; round++ {
		eng.ForN(1000, func(w, lo, hi int) {
			buf := eng.GrabU32(w)
			if buf == nil {
				buf = make([]uint32, 0, 16)
			}
			for i := lo; i < hi; i++ {
				buf = append(buf[:0], uint32(i))
			}
			total.Add(int64(hi - lo))
			eng.StashU32(w, buf)
		})
	}
	if total.Load() != 8000 {
		t.Fatalf("post-panic rounds covered %d indices, want 8000", total.Load())
	}
}

func TestFirstPanicWins(t *testing.T) {
	eng := NewEngine(4)
	defer eng.Close()
	v := recoverValue(func() {
		eng.For(BlockedGrain(0, 64, 1), func(_, lo, hi int) {
			panic("boom") // every chunk panics; exactly one value surfaces
		})
	})
	if v != "boom" {
		t.Fatalf("recovered %v, want boom", v)
	}
}
