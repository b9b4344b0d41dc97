package countmap

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestDenseBasicCounting(t *testing.T) {
	d := NewDense(64)
	d.Inc(10, 1)
	d.Inc(10, 1)
	d.Inc(20, 1)
	if d.Get(10) != 2 || d.Get(20) != 1 || d.Get(30) != 0 {
		t.Fatalf("counts: %d %d %d", d.Get(10), d.Get(20), d.Get(30))
	}
	if got := d.Inc(10, 1); got != 3 {
		t.Fatalf("Inc returned %d, want the new count 3", got)
	}
}

func TestDenseClearIsCheapAndComplete(t *testing.T) {
	d := NewDense(128)
	for i := uint32(0); i < 100; i++ {
		d.Inc(i, 1)
	}
	d.Clear()
	for i := uint32(0); i < 100; i++ {
		if d.Get(i) != 0 {
			t.Fatalf("key %d survived Clear", i)
		}
	}
	if d.Inc(5, 1) != 1 || d.Get(5) != 1 {
		t.Fatal("counter broken after Clear")
	}
}

func TestDenseResetGrows(t *testing.T) {
	d := NewDense(4)
	d.Inc(3, 7)
	d.Reset(1000)
	if d.Get(3) != 0 {
		t.Fatal("Reset did not clear")
	}
	d.Inc(999, 2)
	if d.Get(999) != 2 {
		t.Fatalf("Get(999) = %d after grow", d.Get(999))
	}
	// Shrinking reuses the existing arrays.
	d.Reset(10)
	if d.Get(999) != 0 {
		t.Fatal("stale count visible after Reset")
	}
	d.Inc(9, 1)
	if d.Get(9) != 1 {
		t.Fatal("counter broken after shrink Reset")
	}
}

func TestDenseEpochWraparound(t *testing.T) {
	d := NewDense(8)
	d.Inc(1, 1)
	d.floor, d.top, d.cells[1] = math.MaxInt32/2, math.MaxInt32/2+1, math.MaxInt32/2+1 // the floor out of headroom
	d.Clear()
	if d.Get(1) != 0 {
		t.Fatal("stale entry visible after wraparound reset")
	}
	d.Inc(2, 1)
	if d.Get(2) != 1 {
		t.Fatal("counter broken after wraparound")
	}
}

// tally is what the s-overlap kernel asks of either counter.
type tally interface {
	Inc(key uint32, delta int32) int32
	Get(key uint32) int32
	Clear()
}

// TestCountersAgreeProperty drives Map and Dense with the same operation
// stream and demands identical observable state — every Inc returning the
// new count — the parity contract the kernel's counter axis relies on.
func TestCountersAgreeProperty(t *testing.T) {
	const space = 300
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		dense := NewDense(0)
		dense.Reset(space)
		counters := []tally{New(4), dense}
		oracle := map[uint32]int32{}
		for op := 0; op < 3000; op++ {
			switch rng.Intn(12) {
			case 0:
				for _, c := range counters {
					c.Clear()
				}
				oracle = map[uint32]int32{}
			case 1:
				counters[0].Clear()
				dense.Reset(space)
				oracle = map[uint32]int32{}
			default:
				k := uint32(rng.Intn(space))
				oracle[k]++
				for _, c := range counters {
					if c.Inc(k, 1) != oracle[k] {
						return false
					}
				}
			}
		}
		for _, c := range counters {
			for k := uint32(0); k < space; k++ {
				if c.Get(k) != oracle[k] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// benchCounters compares hashmap vs dense tallying across overlap densities:
// each round simulates one hyperedge's counting pass touching `keys` distinct
// neighbors out of a `space`-sized ID space (the fraction is the overlap
// density), with `hits` increments per key, then a Clear — the exact access
// pattern of the s-overlap kernel's two-level walk.
func benchCounters(b *testing.B, space, keys, hits int) {
	ks := make([]uint32, keys*hits)
	rng := rand.New(rand.NewSource(42))
	perm := rng.Perm(space)
	for i := 0; i < keys; i++ {
		for h := 0; h < hits; h++ {
			ks[i*hits+h] = uint32(perm[i])
		}
	}
	rng.Shuffle(len(ks), func(i, j int) { ks[i], ks[j] = ks[j], ks[i] })
	run := func(b *testing.B, c tally) {
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			n := 0
			for _, k := range ks {
				if c.Inc(k, 1) == int32(hits) {
					n++
				}
			}
			if n != keys {
				b.Fatalf("%d keys reached %d, want %d", n, hits, keys)
			}
			c.Clear()
		}
	}
	b.Run("hashmap", func(b *testing.B) { run(b, New(64)) })
	b.Run("dense", func(b *testing.B) { run(b, NewDense(space)) })
}

func BenchmarkCounterDensity(b *testing.B) {
	const space = 1 << 16
	for _, density := range []float64{0.001, 0.01, 0.1, 0.5} {
		keys := int(float64(space) * density)
		b.Run(fmt.Sprintf("density=%g", density), func(b *testing.B) {
			benchCounters(b, space, keys, 3)
		})
	}
}
