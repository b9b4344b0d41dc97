package slinegraph

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"testing/quick"

	"nwhy/internal/core"
	"nwhy/internal/sparse"
)

// paperHypergraph is the running example: e0={0,1,2}, e1={2,3,4},
// e2={4,5,6}, e3={0,6,7,8}. Pairwise overlaps are all of size 1 in a cycle
// e0-e1-e2-e3-e0.
func paperHypergraph() *core.Hypergraph {
	return core.FromSets([][]uint32{
		{0, 1, 2},
		{2, 3, 4},
		{4, 5, 6},
		{0, 6, 7, 8},
	}, 9)
}

// overlapHypergraph has graded overlaps to make s = 2 and s = 3 non-trivial:
// e0={0,1,2,3}, e1={1,2,3,4}, e2={2,3,4,5}, e3={7,8}.
// |e0∩e1| = 3, |e0∩e2| = 2, |e1∩e2| = 3, e3 disjoint.
func overlapHypergraph() *core.Hypergraph {
	return core.FromSets([][]uint32{
		{0, 1, 2, 3},
		{1, 2, 3, 4},
		{2, 3, 4, 5},
		{7, 8},
	}, 9)
}

func pairs(ps ...[2]uint32) []sparse.Edge {
	out := make([]sparse.Edge, len(ps))
	for i, p := range ps {
		out[i] = sparse.Edge{U: p[0], V: p[1]}
	}
	return out
}

// allAlgorithms runs every construction algorithm (queue-based ones on the
// bipartite input) with default options.
func allAlgorithms(h *core.Hypergraph, s int) map[string][]sparse.Edge {
	o := Options{}
	return map[string][]sparse.Edge{
		"naive":        tNaive(h, s),
		"intersection": tIntersection(h, s, o),
		"hashmap":      tHashmap(h, s, o),
		"queue1":       tQueueHashmap(FromHypergraph(h), s, o),
		"queue2":       tQueueIntersection(FromHypergraph(h), s, o),
	}
}

func TestSLineGraphPaperExampleS1(t *testing.T) {
	want := pairs([2]uint32{0, 1}, [2]uint32{0, 3}, [2]uint32{1, 2}, [2]uint32{2, 3})
	for name, got := range allAlgorithms(paperHypergraph(), 1) {
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s s=1: %v, want %v", name, got, want)
		}
	}
}

func TestSLineGraphPaperExampleS2Empty(t *testing.T) {
	for name, got := range allAlgorithms(paperHypergraph(), 2) {
		if len(got) != 0 {
			t.Errorf("%s s=2: %v, want empty", name, got)
		}
	}
}

func TestSLineGraphGradedOverlaps(t *testing.T) {
	h := overlapHypergraph()
	wantByS := map[int][]sparse.Edge{
		1: pairs([2]uint32{0, 1}, [2]uint32{0, 2}, [2]uint32{1, 2}),
		2: pairs([2]uint32{0, 1}, [2]uint32{0, 2}, [2]uint32{1, 2}),
		3: pairs([2]uint32{0, 1}, [2]uint32{1, 2}),
		4: nil,
	}
	for s, want := range wantByS {
		for name, got := range allAlgorithms(h, s) {
			if len(want) == 0 && len(got) == 0 {
				continue
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s s=%d: %v, want %v", name, s, got, want)
			}
		}
	}
}

func randomHypergraph(ne, nv, maxSize int, seed int64) *core.Hypergraph {
	rng := rand.New(rand.NewSource(seed))
	sets := make([][]uint32, ne)
	for e := range sets {
		size := 1 + rng.Intn(maxSize)
		seen := map[uint32]bool{}
		for len(seen) < size {
			seen[uint32(rng.Intn(nv))] = true
		}
		for v := range seen {
			sets[e] = append(sets[e], v)
		}
	}
	return core.FromSets(sets, nv)
}

func TestAllAlgorithmsAgreeOnRandomInputs(t *testing.T) {
	f := func(seed int64) bool {
		h := randomHypergraph(40, 25, 6, seed)
		for s := 1; s <= 4; s++ {
			want := tNaive(h, s)
			for name, got := range allAlgorithms(h, s) {
				if !reflect.DeepEqual(got, want) {
					t.Logf("%s disagrees with naive at s=%d (seed %d)", name, s, seed)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestSLineMonotonicityProperty(t *testing.T) {
	// edges(s+1) ⊆ edges(s): higher thresholds only remove edges.
	f := func(seed int64) bool {
		h := randomHypergraph(30, 20, 6, seed)
		prev := tHashmap(h, 1, Options{})
		for s := 2; s <= 5; s++ {
			cur := tHashmap(h, s, Options{})
			set := map[sparse.Edge]bool{}
			for _, e := range prev {
				set[e] = true
			}
			for _, e := range cur {
				if !set[e] {
					return false
				}
			}
			prev = cur
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestOptionsMatrixAllEquivalent(t *testing.T) {
	h := randomHypergraph(50, 30, 6, 77)
	want := tNaive(h, 2)
	for _, p := range allPrunes {
		o := Options{Prune: p}
		for name, got := range map[string][]sparse.Edge{
			"intersection": tIntersection(h, 2, o),
			"hashmap":      tHashmap(h, 2, o),
			"queue1":       tQueueHashmap(FromHypergraph(h), 2, o),
			"queue2":       tQueueIntersection(FromHypergraph(h), 2, o),
		} {
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s with prune %v differs from naive", name, p)
			}
		}
	}
}

func TestQueueAlgorithmsOnAdjoinInput(t *testing.T) {
	// The queue-based algorithms must produce identical s-line graphs when
	// fed the adjoin representation directly — the versatility claim.
	h := randomHypergraph(40, 25, 5, 3)
	a := core.Adjoin(teng, h)
	for s := 1; s <= 3; s++ {
		want := tNaive(h, s)
		if got := tQueueHashmap(FromAdjoin(a), s, Options{}); !reflect.DeepEqual(got, want) {
			t.Errorf("QueueHashmap on adjoin, s=%d: %v want %v", s, got, want)
		}
		if got := tQueueIntersection(FromAdjoin(a), s, Options{}); !reflect.DeepEqual(got, want) {
			t.Errorf("QueueIntersection on adjoin, s=%d: %v want %v", s, got, want)
		}
	}
}

func TestQueueAlgorithmsOnRenamedIDs(t *testing.T) {
	// Rename hyperedges to sparse non-contiguous IDs; queue algorithms must
	// work and emit the renamed pairs.
	h := paperHypergraph()
	rename := map[uint32]uint32{0: 11, 1: 3, 2: 29, 3: 17}
	in := Renamed(FromHypergraph(h), rename, 32)
	got1 := tQueueHashmap(in, 1, Options{})
	got2 := tQueueIntersection(in, 1, Options{})
	// Cycle e0-e1-e2-e3-e0 renames to 11-3-29-17-11.
	want := canonPairs(teng, pairs([2]uint32{11, 3}, [2]uint32{11, 17}, [2]uint32{3, 29}, [2]uint32{29, 17}))
	if !reflect.DeepEqual(got1, want) {
		t.Errorf("QueueHashmap renamed: %v, want %v", got1, want)
	}
	if !reflect.DeepEqual(got2, want) {
		t.Errorf("QueueIntersection renamed: %v, want %v", got2, want)
	}

	// An order-reversing rename (new ID = idSpace − 1 − old): EdgeIDs and
	// every EdgesOf row now come back descending, so a kernel that leaned on
	// the order its Input lists hyperedges in — a binary search for the
	// first f > e on an Input row, say — fails here.
	big := randomHypergraph(40, 20, 5, 3)
	const space = 64
	reverse := map[uint32]uint32{}
	for e := 0; e < big.NumEdges(); e++ {
		reverse[uint32(e)] = uint32(space - 1 - e)
	}
	rin := Renamed(FromHypergraph(big), reverse, space)
	for s := 1; s <= 3; s++ {
		var want []sparse.Edge
		for _, p := range tNaive(big, s) {
			want = append(want, sparse.Edge{U: reverse[p.V], V: reverse[p.U]})
		}
		want = canonPairs(teng, want)
		for _, ctr := range allCounters {
			if got := tPinned(rin, s, Options{}, ctr); !slices.Equal(got, want) {
				t.Errorf("reversed IDs, s=%d counter=%v: %d pairs, want %d", s, ctr, len(got), len(want))
			}
		}
		checkAgainstParent(t, teng, rin, s, "reversed IDs")
	}
}

func TestQueueAlgorithmsRenamedInvariance(t *testing.T) {
	f := func(seed int64) bool {
		h := randomHypergraph(25, 15, 4, seed)
		rng := rand.New(rand.NewSource(seed ^ 0x5eed))
		// Random injective renaming into a 4x larger space.
		space := 4 * h.NumEdges()
		permIDs := rng.Perm(space)
		rename := map[uint32]uint32{}
		for e := 0; e < h.NumEdges(); e++ {
			rename[uint32(e)] = uint32(permIDs[e])
		}
		in := Renamed(FromHypergraph(h), rename, space)
		for s := 1; s <= 3; s++ {
			want := map[sparse.Edge]bool{}
			for _, e := range tNaive(h, s) {
				u, v := rename[e.U], rename[e.V]
				if u > v {
					u, v = v, u
				}
				want[sparse.Edge{U: u, V: v}] = true
			}
			for _, algo := range []func(Input, int, Options) []sparse.Edge{tQueueHashmap, tQueueIntersection} {
				got := algo(in, s, Options{})
				if len(got) != len(want) {
					return false
				}
				for _, e := range got {
					if !want[e] {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

func TestEnsembleMatchesIndividualRuns(t *testing.T) {
	h := randomHypergraph(40, 25, 6, 9)
	ss := []int{1, 2, 3, 5}
	got := tEnsemble(FromHypergraph(h), ss)
	for _, s := range ss {
		want := tHashmap(h, s, Options{})
		if !reflect.DeepEqual(got[s], want) {
			t.Errorf("ensemble s=%d differs from hashmap", s)
		}
	}
}

func TestEnsembleQueueMatchesEnsemble(t *testing.T) {
	h := randomHypergraph(40, 25, 6, 17)
	ss := []int{1, 2, 4}
	want := tEnsemble(FromHypergraph(h), ss)
	// On the adjoin representation.
	gotAdj := tEnsemble(FromAdjoin(core.Adjoin(teng, h)), ss)
	for _, s := range ss {
		if !reflect.DeepEqual(gotAdj[s], want[s]) {
			t.Errorf("adjoin queue ensemble s=%d differs", s)
		}
	}
}

// A member whose threshold no overlap reaches is an empty line graph over
// the whole ID space, not a missing one: the handle built from it must still
// have every hyperedge as a vertex.
func emptyMember(t *testing.T, in Input) {
	t.Helper()
	base := tWeighted(in, 1, HashmapCounter)
	member, err := base.KeepAtLeast(teng, 2) // the running example's overlaps are all 1
	if err != nil {
		t.Fatal(err)
	}
	if base.NumEdges() != 8 || member.NumRows() != in.IDSpace() || member.NumEdges() != 0 || member.UpperTriangle() != nil {
		t.Fatalf("base has %d entries; member above every overlap: %d rows, %d entries", base.NumEdges(), member.NumRows(), member.NumEdges())
	}
}

func TestEnsembleQueueEmpty(t *testing.T) {
	emptyMember(t, FromAdjoin(core.Adjoin(teng, paperHypergraph())))
}

func TestEnsembleEmptyThresholds(t *testing.T) {
	emptyMember(t, FromHypergraph(paperHypergraph()))
}

func TestCliqueExpansionPaperExample(t *testing.T) {
	// Clique expansion of the running example: each hyperedge becomes a
	// clique over its members.
	got := tCliqueExpansion(paperHypergraph(), Options{})
	want := map[sparse.Edge]bool{}
	for _, set := range [][]uint32{{0, 1, 2}, {2, 3, 4}, {4, 5, 6}, {0, 6, 7, 8}} {
		for i := 0; i < len(set); i++ {
			for j := i + 1; j < len(set); j++ {
				u, v := set[i], set[j]
				if u > v {
					u, v = v, u
				}
				want[sparse.Edge{U: u, V: v}] = true
			}
		}
	}
	if len(got) != len(want) {
		t.Fatalf("clique expansion has %d edges, want %d", len(got), len(want))
	}
	for _, e := range got {
		if !want[e] {
			t.Fatalf("unexpected clique edge %v", e)
		}
	}
}

func TestCliqueExpansionIsDualOneLine(t *testing.T) {
	h := randomHypergraph(20, 15, 5, 21)
	a := tCliqueExpansion(h, Options{})
	b := tNaive(h.Dual(), 1)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("clique expansion != 1-line graph of dual")
	}
}

func TestDegreeFilterExcludesSmallEdges(t *testing.T) {
	// A hyperedge of size 1 can never appear in a 2-line graph, even though
	// it overlaps others.
	h := core.FromSets([][]uint32{{0}, {0, 1, 2}, {1, 2, 3}}, 4)
	for name, got := range allAlgorithms(h, 2) {
		want := pairs([2]uint32{1, 2})
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: %v, want %v", name, got, want)
		}
	}
}

func TestSelfPairsNeverEmitted(t *testing.T) {
	f := func(seed int64) bool {
		h := randomHypergraph(20, 10, 4, seed)
		for _, e := range tHashmap(h, 1, Options{}) {
			if e.U == e.V {
				return false
			}
			if e.U > e.V {
				return false // canonical order violated
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestCountCommonGE(t *testing.T) {
	a := []uint32{1, 3, 5, 7}
	b := []uint32{3, 4, 5, 6, 7}
	if c, ok := countCommonGE(a, b, 3); !ok || c < 3 {
		t.Fatalf("countCommonGE = %d,%v want >=3", c, ok)
	}
	if _, ok := countCommonGE(a, b, 4); ok {
		t.Fatal("countCommonGE reported 4 common, only 3 exist")
	}
	if c, ok := countCommonGE(nil, b, 0); !ok || c != 0 {
		t.Fatalf("s=0 should trivially hold: %d %v", c, ok)
	}
	if _, ok := countCommonGE([]uint32{1}, []uint32{2}, 1); ok {
		t.Fatal("disjoint sets reported s-incident")
	}
}
