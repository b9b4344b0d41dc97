package slinegraph

import (
	"encoding/binary"
	"math/rand"
	"slices"
	"testing"
)

// checkSortDistinct sorts a copy of keys with sortDistinct, on a scratch as
// the last call left it, and demands slices.Sort's order and a scratch that
// is all zero again. It reports which branch the run took.
func checkSortDistinct(t *testing.T, keys []uint32, scratch []uint64) (_ []uint64, bucketed bool) {
	t.Helper()
	want := slices.Clone(keys)
	slices.Sort(want)
	got := slices.Clone(keys)
	scratch = sortDistinct(got, scratch)
	if !slices.Equal(got, want) {
		t.Fatalf("sortDistinct(%v) = %v, want %v", keys, got, want)
	}
	for i, word := range scratch {
		if word != 0 {
			t.Fatalf("sortDistinct(%v) left scratch word %d = %#x", keys, i, word)
		}
	}
	if len(keys) < 2 {
		return scratch, false
	}
	span := int64(want[len(want)-1]-want[0])/64 + 1
	if bucketed = span <= sortDistinctSpread*int64(len(keys)); bucketed && int64(len(scratch)) < span {
		t.Fatalf("sortDistinct(%v) bucket-sorted %d words of range on a scratch of %d", keys, span, len(scratch))
	}
	return scratch, bucketed
}

// distinctKeys draws n distinct keys from [lo, lo+span), shuffled.
func distinctKeys(rng *rand.Rand, n int, lo, span uint32) []uint32 {
	seen := map[uint32]bool{}
	for len(seen) < n {
		seen[lo+uint32(rng.Int63n(int64(span)))] = true
	}
	keys := make([]uint32, 0, n)
	for k := range seen {
		keys = append(keys, k)
	}
	rng.Shuffle(n, func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
	return keys
}

// TestSortDistinctProperty drives both branches of the rule — runs dense in
// their own range, runs spread over the whole key space, the boundary
// between the two, the extremes of uint32 — through one scratch, which must
// come back zeroed every time and never hold more than
// sortDistinctSpread words per key of the largest bucket-sorted run.
func TestSortDistinctProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var scratch []uint64
	var dense, sparse, largest int
	for trial := 0; trial < 2000; trial++ {
		n := rng.Intn(40)
		lo := uint32(rng.Int63n(1 << 32))
		span := uint32(n + 1 + rng.Intn(1<<uint(rng.Intn(20))))
		if uint64(lo)+uint64(span) > 1<<32 {
			lo = -span // the top of the key space
		}
		keys := distinctKeys(rng, n, lo, span)
		var bucketed bool
		if scratch, bucketed = checkSortDistinct(t, keys, scratch); bucketed {
			dense++
			largest = max(largest, n)
		} else if n > 1 {
			sparse++
		}
	}
	if dense < 200 || sparse < 200 {
		t.Fatalf("%d bucket-sorted and %d comparison-sorted runs: the trials no longer force both branches", dense, sparse)
	}
	if len(scratch) > sortDistinctSpread*largest {
		t.Fatalf("scratch grew to %d words; the largest bucket-sorted run had %d keys", len(scratch), largest)
	}
	// Exactly at the rule's boundary: span/64 + 1 = sortDistinctSpread·len.
	for _, words := range []uint32{sortDistinctSpread * 2, sortDistinctSpread*2 + 1} {
		keys := []uint32{7 + (words-1)*64, 7}
		if _, bucketed := checkSortDistinct(t, keys, nil); bucketed != (words == sortDistinctSpread*2) {
			t.Fatalf("a 2-key run over %d words: bucketed = %v", words, bucketed)
		}
	}
	checkSortDistinct(t, []uint32{^uint32(0), 0}, nil)
	checkSortDistinct(t, []uint32{^uint32(0), ^uint32(0) - 63, ^uint32(0) - 64}, nil)
}

// FuzzSortDistinct decodes the input into distinct keys — four bytes each,
// the first byte of the input choosing how many high bits to drop so that
// both dense and sparse runs are generated — and checks sortDistinct against
// slices.Sort, the scratch coming back zeroed.
func FuzzSortDistinct(f *testing.F) {
	f.Add([]byte{26, 0, 0, 0, 9, 0, 0, 0, 3, 0, 0, 0, 200})          // dense: the bitmap branch
	f.Add([]byte{0, 0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0, 0, 0, 1, 0}) // spread over the key space: slices.Sort
	f.Add([]byte{0, 1, 2, 3, 4})                                     // one key
	f.Add([]byte{16})                                                // none
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		shift := uint(data[0]) % 32
		seen := map[uint32]bool{}
		var keys []uint32
		for rest := data[1:]; len(rest) >= 4 && len(keys) < 256; rest = rest[4:] {
			if k := binary.BigEndian.Uint32(rest) >> shift; !seen[k] {
				seen[k] = true
				keys = append(keys, k)
			}
		}
		scratch, _ := checkSortDistinct(t, keys, nil)
		checkSortDistinct(t, keys, scratch) // again, on the scratch the first call left
	})
}
