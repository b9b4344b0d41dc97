package parallel

import (
	"context"
	"math/rand"
	"sort"
	"testing"
)

type radixItem struct {
	key uint64
	seq int
}

func randomItems(n int, keySpace uint64, seed int64) []radixItem {
	rng := rand.New(rand.NewSource(seed))
	items := make([]radixItem, n)
	for i := range items {
		items[i] = radixItem{key: uint64(rng.Int63()) % keySpace, seq: i}
	}
	return items
}

func checkSortedStable(t *testing.T, items []radixItem) {
	t.Helper()
	for i := 1; i < len(items); i++ {
		if items[i-1].key > items[i].key {
			t.Fatalf("not sorted at %d: %d > %d", i, items[i-1].key, items[i].key)
		}
		if items[i-1].key == items[i].key && items[i-1].seq > items[i].seq {
			t.Fatalf("not stable at %d: key %d has seq %d before %d", i, items[i].key, items[i-1].seq, items[i].seq)
		}
	}
}

func TestRadixSort64MatchesSortSlice(t *testing.T) {
	eng := NewEngine(4)
	defer eng.Close()
	for _, n := range []int{0, 1, 2, 100, radixSerialCutoff - 1, radixSerialCutoff, 1 << 15} {
		for _, keySpace := range []uint64{1, 7, 1 << 8, 1 << 20, 1 << 40, 1 << 62} {
			items := randomItems(n, keySpace, int64(n)+int64(keySpace))
			want := append([]radixItem(nil), items...)
			sort.SliceStable(want, func(a, b int) bool { return want[a].key < want[b].key })
			RadixSort64On(eng, items, func(it radixItem) uint64 { return it.key })
			for i := range items {
				if items[i] != want[i] {
					t.Fatalf("n=%d space=%d: mismatch at %d: got %+v want %+v", n, keySpace, i, items[i], want[i])
				}
			}
			checkSortedStable(t, items)
		}
	}
}

// The shared engine sorts on the default pool.
func TestRadixSort64DefaultPool(t *testing.T) {
	items := randomItems(1<<14, 1<<32, 7)
	RadixSort64On(SharedEngine(), items, func(it radixItem) uint64 { return it.key })
	checkSortedStable(t, items)
}

// Duplicate-heavy input: stability must hold when most elements share keys,
// the regime the weighted dedup's first-weight-wins rule lives in.
func TestRadixSort64StabilityDuplicates(t *testing.T) {
	eng := NewEngine(4)
	defer eng.Close()
	items := randomItems(1<<15, 16, 99)
	RadixSort64On(eng, items, func(it radixItem) uint64 { return it.key })
	checkSortedStable(t, items)
}

// A cancelled engine must leave the slice a permutation of its input.
func TestRadixSort64CancelledLeavesPermutation(t *testing.T) {
	eng := NewEngine(4)
	defer eng.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ceng := eng.WithContext(ctx)
	items := randomItems(1<<15, 1<<40, 3)
	seen := make([]bool, len(items))
	RadixSort64On(ceng, items, func(it radixItem) uint64 { return it.key })
	if ceng.Err() == nil {
		t.Fatal("expected engine to report cancellation")
	}
	for _, it := range items {
		if seen[it.seq] {
			t.Fatalf("seq %d appears twice: slice is not a permutation", it.seq)
		}
		seen[it.seq] = true
	}
}

func BenchmarkRadixSort64(b *testing.B) {
	eng := NewEngine(0)
	defer eng.Close()
	base := randomItems(1<<18, 1<<40, 1)
	items := make([]radixItem, len(base))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(items, base)
		RadixSort64On(eng, items, func(it radixItem) uint64 { return it.key })
	}
}
