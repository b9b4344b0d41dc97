package parallel_test

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"nwhy/internal/parallel"
	"nwhy/internal/parallel/paralleltest"
)

type pair struct{ u, v uint32 }

func pairKey(p pair) uint64 { return uint64(p.u)<<32 | uint64(p.v) }

// isPermutation reports whether got holds exactly the multiset of want.
func isPermutation[T any](got, want []T, key func(T) uint64) error {
	count := make(map[uint64]int, len(want))
	for _, x := range want {
		count[key(x)]++
	}
	for i, x := range got {
		if count[key(x)]--; count[key(x)] < 0 {
			return fmt.Errorf("element %d (key %#x) is not from the input", i, key(x))
		}
	}
	return nil
}

// TestRadixSort64OnCancelAtEveryPoll cancels the sort at each of its polls,
// in the two shapes the sparse builders use: the pairs themselves
// (unweighted) and an index permutation keyed through them (the weighted
// dedup, whose weights follow the indices). Every cancelled sort leaves a
// permutation of its input — a scatter that dropped chunks is never swapped
// in — and every finished one equals the stable comparison sort.
func TestRadixSort64OnCancelAtEveryPoll(t *testing.T) {
	eng := parallel.NewEngine(4)
	defer eng.Close()
	rng := rand.New(rand.NewSource(11))
	input := make([]pair, 3*parallel.RadixSerialCutoff)
	for i := range input {
		input[i] = pair{uint32(rng.Intn(1 << 20)), uint32(rng.Intn(300))}
	}
	wantPairs := slices.Clone(input)
	slices.SortStableFunc(wantPairs, func(a, b pair) int { return cmp.Compare(pairKey(a), pairKey(b)) })
	byPair := func(i int) uint64 { return pairKey(input[i]) }
	ids := make([]int, len(input))
	for i := range ids {
		ids[i] = i
	}
	wantIDs := slices.Clone(ids)
	slices.SortStableFunc(wantIDs, func(a, b int) int { return cmp.Compare(byPair(a), byPair(b)) })

	t.Run("unweighted", func(t *testing.T) {
		paralleltest.CancelAtEveryPoll(t, eng, func(e *parallel.Engine) ([]pair, error) {
			got := slices.Clone(input)
			parallel.RadixSort64On(e, got, pairKey)
			if err := isPermutation(got, input, pairKey); err != nil {
				t.Fatalf("not a permutation (engine error %v): %v", e.Err(), err)
			}
			if err := e.Err(); err != nil {
				return nil, err
			}
			return got, nil
		}, func(got []pair) error {
			if !slices.Equal(got, wantPairs) {
				return fmt.Errorf("order differs from the stable comparison sort")
			}
			return nil
		})
	})
	t.Run("weighted", func(t *testing.T) {
		id := func(i int) uint64 { return uint64(i) }
		paralleltest.CancelAtEveryPoll(t, eng, func(e *parallel.Engine) ([]int, error) {
			got := slices.Clone(ids)
			parallel.RadixSort64On(e, got, byPair)
			if err := isPermutation(got, ids, id); err != nil {
				t.Fatalf("not a permutation (engine error %v): %v", e.Err(), err)
			}
			if err := e.Err(); err != nil {
				return nil, err
			}
			return got, nil
		}, func(got []int) error {
			if !slices.Equal(got, wantIDs) {
				return fmt.Errorf("order differs from the stable comparison sort")
			}
			return nil
		})
	})
}
