package unionfind

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"

	"nwhy/internal/parallel"
	"nwhy/internal/parallel/paralleltest"
)

// teng is the engine every Compress in this file runs on.
var teng = parallel.NewEngine(4)

// numRoots counts the sets of a compressed forest: the elements that are
// their own label.
func numRoots(f *Forest) int {
	n := 0
	for x, r := range f.Labels() {
		if r == uint32(x) {
			n++
		}
	}
	return n
}

func TestBasicUnionFind(t *testing.T) {
	f := New(5)
	if f.Len() != 5 || numRoots(f) != 5 {
		t.Fatal("fresh forest wrong")
	}
	f.Union(0, 2)
	f.Union(2, 4)
	f.Compress(teng)
	if !f.Same(0, 4) || f.Same(0, 1) {
		t.Fatal("union results wrong")
	}
	if numRoots(f) != 3 {
		t.Fatalf("roots = %d, want 3", numRoots(f))
	}
	// Minimum-member representative.
	if f.Find(4) != 0 {
		t.Fatalf("root of 4 = %d, want 0", f.Find(4))
	}
}

func TestUnionSelfAndRepeated(t *testing.T) {
	f := New(3)
	f.Union(1, 1)
	f.Union(0, 2)
	f.Union(0, 2)
	f.Union(2, 0)
	f.Compress(teng)
	if numRoots(f) != 2 {
		t.Fatalf("roots = %d", numRoots(f))
	}
}

// oracle union-find for comparison.
type oracle struct{ parent []int }

func newOracle(n int) *oracle {
	o := &oracle{parent: make([]int, n)}
	for i := range o.parent {
		o.parent[i] = i
	}
	return o
}
func (o *oracle) find(x int) int {
	for o.parent[x] != x {
		o.parent[x] = o.parent[o.parent[x]]
		x = o.parent[x]
	}
	return x
}
func (o *oracle) union(a, b int) {
	ra, rb := o.find(a), o.find(b)
	if ra < rb {
		o.parent[rb] = ra
	} else if rb < ra {
		o.parent[ra] = rb
	}
}

func TestMatchesOracleProperty(t *testing.T) {
	fn := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(60)
		f := New(n)
		o := newOracle(n)
		for i := 0; i < 120; i++ {
			a, b := uint32(rng.Intn(n)), uint32(rng.Intn(n))
			f.Union(a, b)
			o.union(int(a), int(b))
		}
		f.Compress(teng)
		for x := 0; x < n; x++ {
			if int(f.Labels()[x]) != o.find(x) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(fn, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestConcurrentUnions(t *testing.T) {
	const n = 10000
	f := New(n)
	var wg sync.WaitGroup
	// 8 goroutines each union a strided chain; combined they connect
	// everything into one set.
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; i+8 < n; i += 8 {
				f.Union(uint32(i), uint32(i+8)) // chains within residue class
			}
			f.Union(uint32(g), uint32((g+1)%8)) // stitch classes together
		}(g)
	}
	wg.Wait()
	f.Compress(teng)
	if numRoots(f) != 1 {
		t.Fatalf("roots = %d, want 1", numRoots(f))
	}
	for x := 0; x < n; x++ {
		if f.Labels()[x] != 0 {
			t.Fatalf("label[%d] = %d", x, f.Labels()[x])
		}
	}
}

func TestConcurrentUnionsRandom(t *testing.T) {
	const n = 5000
	edges := make([][2]uint32, 20000)
	rng := rand.New(rand.NewSource(7))
	o := newOracle(n)
	for i := range edges {
		a, b := uint32(rng.Intn(n)), uint32(rng.Intn(n))
		edges[i] = [2]uint32{a, b}
		o.union(int(a), int(b))
	}
	f := New(n)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; i < len(edges); i += 8 {
				f.Union(edges[i][0], edges[i][1])
			}
		}(g)
	}
	wg.Wait()
	f.Compress(teng)
	for x := 0; x < n; x++ {
		if int(f.Labels()[x]) != o.find(x) {
			t.Fatalf("label[%d] = %d, oracle %d", x, f.Labels()[x], o.find(x))
		}
	}
}

func TestTryUnion(t *testing.T) {
	f := New(4)
	if !f.TryUnion(0, 2) {
		t.Fatal("first union of distinct singletons should report a merge")
	}
	if f.TryUnion(0, 2) || f.TryUnion(2, 0) {
		t.Fatal("re-union of the same set should report no merge")
	}
	if f.TryUnion(1, 1) {
		t.Fatal("self-union should report no merge")
	}
	if !f.TryUnion(2, 3) {
		t.Fatal("union through a non-root member should still merge")
	}
	f.Compress(teng)
	if numRoots(f) != 2 {
		t.Fatalf("roots = %d, want 2", numRoots(f))
	}
}

func TestTryUnionCountsMerges(t *testing.T) {
	// Across any interleaving, successful TryUnions = n - roots: each true
	// return is exactly one merge.
	const n = 4000
	f := New(n)
	rng := rand.New(rand.NewSource(11))
	edges := make([][2]uint32, 12000)
	for i := range edges {
		edges[i] = [2]uint32{uint32(rng.Intn(n)), uint32(rng.Intn(n))}
	}
	var merges atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; i < len(edges); i += 8 {
				if f.TryUnion(edges[i][0], edges[i][1]) {
					merges.Add(1)
				}
			}
		}(g)
	}
	wg.Wait()
	f.Compress(teng)
	if got, want := merges.Load(), int64(n-numRoots(f)); got != want {
		t.Fatalf("merges = %d, want %d (n - roots)", got, want)
	}
}

func TestSameSet(t *testing.T) {
	f := New(6)
	if f.SameSet(0, 1) {
		t.Fatal("fresh singletons reported connected")
	}
	f.Union(0, 2)
	f.Union(2, 4)
	if !f.SameSet(0, 4) || !f.SameSet(4, 0) {
		t.Fatal("SameSet missed a union chain")
	}
	if f.SameSet(0, 1) {
		t.Fatal("SameSet connected disjoint sets")
	}
	if !f.SameSet(3, 3) {
		t.Fatal("SameSet(x, x) must be true")
	}
}

// TestSameSetNeverFalsePositive: under concurrent unions, SameSet may be
// stale (report false for a freshly merged pair) but must never report true
// for elements in different residue classes, which no union ever connects.
func TestSameSetNeverFalsePositive(t *testing.T) {
	const n = 8000
	f := New(n)
	var writers, readers sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 4; g++ {
		writers.Add(1)
		go func(g int) {
			defer writers.Done()
			for i := g; i+4 < n; i += 4 {
				f.Union(uint32(i), uint32(i+4)) // stays within residue class mod 4
			}
		}(g)
	}
	var bad atomic.Bool
	for g := 0; g < 4; g++ {
		readers.Add(1)
		go func(g int) {
			defer readers.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for {
				select {
				case <-stop:
					return
				default:
				}
				a := uint32(rng.Intn(n))
				b := uint32(rng.Intn(n))
				if a%4 != b%4 && f.SameSet(a, b) {
					bad.Store(true)
					return
				}
			}
		}(g)
	}
	writers.Wait()
	close(stop)
	readers.Wait()
	if bad.Load() {
		t.Fatal("SameSet reported true across disjoint residue classes")
	}
	f.Compress(teng)
	for x := 0; x < n; x++ {
		if f.Labels()[x] != uint32(x%4) {
			t.Fatalf("label[%d] = %d, want %d", x, f.Labels()[x], x%4)
		}
	}
}

func TestGrowPreservesSets(t *testing.T) {
	f := New(4)
	f.Union(0, 1)
	f.Union(2, 3)
	f.Grow(7)
	if f.Len() != 7 {
		t.Fatalf("Len = %d, want 7", f.Len())
	}
	f.Compress(teng)
	if !f.Same(0, 1) || !f.Same(2, 3) || f.Same(0, 2) {
		t.Fatal("pre-grow sets disturbed")
	}
	for x := uint32(4); x < 7; x++ {
		if f.Find(x) != x {
			t.Fatalf("new element %d not a singleton (root %d)", x, f.Find(x))
		}
	}
	// New elements participate in unions normally.
	f.Union(3, 5)
	f.Compress(teng)
	if !f.Same(2, 5) {
		t.Fatal("union across the grown boundary failed")
	}
	// Growing to a smaller or equal size is a no-op.
	f.Grow(3)
	if f.Len() != 7 {
		t.Fatalf("Len after shrink attempt = %d", f.Len())
	}
}

// TestCompressCancelledAtEveryPoll: a Compress cancelled at any poll leaves
// a forest whose every element still finds its root, and a live Compress
// afterwards labels it exactly as an uncancelled one.
func TestCompressCancelledAtEveryPoll(t *testing.T) {
	const n = 1 << 12
	rng := rand.New(rand.NewSource(5))
	pairs := make([][2]uint32, n/2)
	for i := range pairs {
		pairs[i] = [2]uint32{uint32(rng.Intn(n)), uint32(rng.Intn(n))}
	}
	forest := func() *Forest {
		f := New(n)
		for _, p := range pairs {
			f.Union(p[0], p[1])
		}
		return f
	}
	ref := forest()
	ref.Compress(teng)
	want := append([]uint32(nil), ref.Labels()...)
	paralleltest.CancelAtEveryPoll(t, teng, func(eng *parallel.Engine) ([]uint32, error) {
		f := forest()
		f.Compress(eng)
		if err := eng.Err(); err != nil {
			for x := range want {
				if f.Find(uint32(x)) != want[x] {
					t.Fatalf("element %d lost its root after a cancelled Compress", x)
				}
			}
			f.Compress(teng)
			if err := equalLabels(f.Labels(), want); err != nil {
				t.Fatalf("live Compress after a cancelled one: %v", err)
			}
			return nil, err
		}
		return f.Labels(), nil
	}, func(got []uint32) error { return equalLabels(got, want) })
}

func equalLabels(got, want []uint32) error {
	for x := range want {
		if got[x] != want[x] {
			return fmt.Errorf("label[%d] = %d, want %d", x, got[x], want[x])
		}
	}
	return nil
}
