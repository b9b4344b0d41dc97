package parallel

import "sort"

// RadixSort64On sorts s by key on engine e with a stable parallel LSD radix
// sort: one 8-bit digit per pass, per-chunk histograms, and offsets laid out
// bucket-major/chunk-minor so elements of a bucket keep their chunk order —
// the property the weighted dedup's first-wins rule depends on. The pass
// count comes from the maximum key (a 32-bit key pays four passes, not
// eight) and passes whose digit is uniform across the input are skipped.
// Falls back to sort.SliceStable below the size where parallel passes pay
// for themselves.
//
// A cancelled sort stops early and leaves s a permutation of its input
// (possibly unsorted), never a corrupted mix of the ping-pong buffers:
// an engine loop drops its remaining chunks once cancelled, so a pass is
// swapped in only if the engine was still live when it finished. Callers
// detect the abort with e.Err().
func RadixSort64On[T any](e *Engine, s []T, key func(T) uint64) {
	n := len(s)
	if n < radixSerialCutoff || e.NumWorkers() < 2 {
		sort.SliceStable(s, func(a, b int) bool { return key(s[a]) < key(s[b]) })
		return
	}
	nchunks := e.NumWorkers()
	bounds := make([]int, nchunks+1)
	for i := 0; i <= nchunks; i++ {
		bounds[i] = i * n / nchunks
	}
	// Pass count from the maximum key: byte k is a pass only if some key
	// has a nonzero byte at or above position k.
	maxes := make([]uint64, nchunks)
	e.For(BlockedGrain(0, nchunks, 1), func(_, lo, hi int) {
		for c := lo; c < hi; c++ {
			var m uint64
			for _, v := range s[bounds[c]:bounds[c+1]] {
				if k := key(v); k > m {
					m = k
				}
			}
			maxes[c] = m
		}
	})
	var maxKey uint64
	for _, m := range maxes {
		if m > maxKey {
			maxKey = m
		}
	}
	if maxKey == 0 || e.Cancelled() {
		return // all keys equal (stable sort is the identity), or cancelled
	}
	passes := 0
	for k := maxKey; k != 0; k >>= 8 {
		passes++
	}
	buf := make([]T, n)
	src, dst := s, buf
	hist := make([]int, nchunks*256)
	for pass := 0; pass < passes && !e.Cancelled(); pass++ {
		shift := uint(8 * pass)
		clear(hist)
		e.For(BlockedGrain(0, nchunks, 1), func(_, lo, hi int) {
			for c := lo; c < hi; c++ {
				h := hist[c*256 : c*256+256]
				for _, v := range src[bounds[c]:bounds[c+1]] {
					h[byte(key(v)>>shift)]++
				}
			}
		})
		// Exclusive offsets, bucket-major then chunk-minor: all of bucket
		// b's elements across chunks land contiguously, chunk 0's first.
		// A digit uniform across the input means the pass would be a pure
		// copy — skip it.
		pos, uniform := 0, false
		for b := 0; b < 256; b++ {
			start := pos
			for c := 0; c < nchunks; c++ {
				cnt := hist[c*256+b]
				hist[c*256+b] = pos
				pos += cnt
			}
			if pos-start == n {
				uniform = true
				break
			}
		}
		if uniform {
			continue
		}
		e.For(BlockedGrain(0, nchunks, 1), func(_, lo, hi int) {
			for c := lo; c < hi; c++ {
				h := hist[c*256 : c*256+256]
				for _, v := range src[bounds[c]:bounds[c+1]] {
					b := byte(key(v) >> shift)
					dst[h[b]] = v
					h[b]++
				}
			}
		})
		if e.Cancelled() {
			break // the scatter may have dropped chunks: dst is not a permutation
		}
		src, dst = dst, src
	}
	if &src[0] != &s[0] {
		// Serial on purpose: this also runs on the cancelled path, where an
		// engine loop would drop chunks.
		copy(s, src)
	}
}

const radixSerialCutoff = 1 << 13

// RadixSerialCutoff is the input size below which RadixSort64On sorts
// serially (sort.SliceStable) instead of scheduling parallel passes. Callers
// inside a parallel loop body may sort slices shorter than this without
// deadlock risk: the serial path never submits pool work, whereas a parallel
// pass submitted from a pool worker would wait on the very pool it is
// occupying.
const RadixSerialCutoff = radixSerialCutoff
