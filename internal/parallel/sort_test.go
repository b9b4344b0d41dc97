package parallel

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestSortSmallFallback(t *testing.T) {
	s := []int{5, 2, 9, 1, 5, 6}
	Sort(s, func(a, b int) bool { return a < b })
	if !sort.IntsAreSorted(s) {
		t.Fatalf("not sorted: %v", s)
	}
}

func TestSortLargeRandom(t *testing.T) {
	SetNumWorkers(4)
	rng := rand.New(rand.NewSource(1))
	s := make([]int, 200000)
	counts := map[int]int{}
	for i := range s {
		s[i] = rng.Intn(1000)
		counts[s[i]]++
	}
	Sort(s, func(a, b int) bool { return a < b })
	if !sort.IntsAreSorted(s) {
		t.Fatal("not sorted")
	}
	// Multiset preserved.
	for _, v := range s {
		counts[v]--
	}
	for v, c := range counts {
		if c != 0 {
			t.Fatalf("element %d count off by %d", v, c)
		}
	}
}

func TestSortAlreadySorted(t *testing.T) {
	s := make([]int, 100000)
	for i := range s {
		s[i] = i
	}
	Sort(s, func(a, b int) bool { return a < b })
	for i := range s {
		if s[i] != i {
			t.Fatal("sorted input perturbed")
		}
	}
}

func TestSortReverse(t *testing.T) {
	n := 150000
	s := make([]int, n)
	for i := range s {
		s[i] = n - i
	}
	Sort(s, func(a, b int) bool { return a < b })
	if !sort.IntsAreSorted(s) {
		t.Fatal("reverse input not sorted")
	}
}

func TestSortAllEqual(t *testing.T) {
	s := make([]int, 100000)
	Sort(s, func(a, b int) bool { return a < b })
	for _, v := range s {
		if v != 0 {
			t.Fatal("corrupted")
		}
	}
}

func TestSortU32Property(t *testing.T) {
	f := func(raw []uint32) bool {
		s := append([]uint32(nil), raw...)
		SortU32(s)
		if len(s) != len(raw) {
			return false
		}
		for i := 1; i < len(s); i++ {
			if s[i-1] > s[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSortSingleWorker(t *testing.T) {
	SetNumWorkers(1)
	defer SetNumWorkers(4)
	rng := rand.New(rand.NewSource(2))
	s := make([]int, 50000)
	for i := range s {
		s[i] = rng.Int()
	}
	Sort(s, func(a, b int) bool { return a < b })
	if !sort.IntsAreSorted(s) {
		t.Fatal("not sorted with one worker")
	}
}

func TestMergeInto(t *testing.T) {
	a := []int{1, 3, 5}
	b := []int{2, 3, 4, 6}
	out := make([]int, 7)
	mergeInto(out, a, b, func(x, y int) bool { return x < y })
	want := []int{1, 2, 3, 3, 4, 5, 6}
	for i := range want {
		if out[i] != want[i] {
			t.Fatalf("merge = %v", out)
		}
	}
	// Empty sides.
	out2 := make([]int, 3)
	mergeInto(out2, nil, []int{1, 2, 3}, func(x, y int) bool { return x < y })
	if out2[0] != 1 || out2[2] != 3 {
		t.Fatalf("merge with empty a = %v", out2)
	}
}

func BenchmarkParallelSort(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	orig := make([]uint32, 1<<18)
	for i := range orig {
		orig[i] = rng.Uint32()
	}
	buf := make([]uint32, len(orig))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(buf, orig)
		SortU32(buf)
	}
}
