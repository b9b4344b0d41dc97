package slinegraph

import (
	"errors"
	"math/rand"
	"slices"
	"testing"

	"nwhy/internal/core"
	"nwhy/internal/gen"
	"nwhy/internal/parallel"
	"nwhy/internal/parallel/paralleltest"
	"nwhy/internal/sparse"
	"nwhy/internal/unionfind"
)

// randSets builds a random hypergraph's hyperedge sets.
func randSets(rng *rand.Rand, numEdges, numNodes, maxDeg int) [][]uint32 {
	sets := make([][]uint32, numEdges)
	for e := range sets {
		d := 1 + rng.Intn(maxDeg)
		s := make([]uint32, d)
		for j := range s {
			s[j] = uint32(rng.Intn(numNodes))
		}
		sets[e] = s
	}
	return sets
}

// pairsSubsetOnDirty filters a canonical pair list to those touching the
// dirty set.
func pairsTouching(pairs []sparse.Edge, dirty map[uint32]bool) []sparse.Edge {
	var out []sparse.Edge
	for _, p := range pairs {
		if dirty[p.U] || dirty[p.V] {
			out = append(out, p)
		}
	}
	return out
}

// TestConstructDirtyMatchesFullDiff grows a hypergraph edge by edge and
// checks that the dirty-edge kernel reports exactly the full kernel's pairs
// that touch the dirty set — the incremental-maintenance contract.
func TestConstructDirtyMatchesFullDiff(t *testing.T) {
	eng := parallel.NewEngine(4)
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 10; trial++ {
		numNodes := 6 + rng.Intn(20)
		oldSets := randSets(rng, 3+rng.Intn(12), numNodes, 5)
		newSets := randSets(rng, 1+rng.Intn(5), numNodes, 5)
		all := append(append([][]uint32(nil), oldSets...), newSets...)
		h := core.FromSets(all, numNodes)
		in := FromHypergraph(h)
		dirty := map[uint32]bool{}
		var dirtyIDs []uint32
		for e := len(oldSets); e < len(all); e++ {
			dirty[uint32(e)] = true
			dirtyIDs = append(dirtyIDs, uint32(e))
		}
		for s := 1; s <= 3; s++ {
			full, err := Construct(eng, in, s, Options{})
			if err != nil {
				t.Fatal(err)
			}
			got, err := ConstructDirty(eng, in, s, dirtyIDs)
			if err != nil {
				t.Fatal(err)
			}
			want := pairsTouching(full, dirty)
			if len(got) != len(want) {
				t.Fatalf("trial %d s=%d: got %d pairs, want %d\n got %v\nwant %v",
					trial, s, len(got), len(want), got, want)
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("trial %d s=%d pair %d: got %v want %v", trial, s, i, got[i], want[i])
				}
			}
		}
	}
}

func TestConstructDirtySkipsIneligible(t *testing.T) {
	eng := parallel.NewEngine(2)
	h := core.FromSets([][]uint32{
		{0, 1, 2},
		{1, 2, 3},
		{5}, // degree 1: ineligible at s=2
	}, 6)
	in := FromHypergraph(h)
	got, err := ConstructDirty(eng, in, 2, []uint32{2})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("ineligible dirty edge produced pairs: %v", got)
	}
}

func TestConstructDirtyDirtyDirtyPairOnce(t *testing.T) {
	eng := parallel.NewEngine(2)
	h := core.FromSets([][]uint32{
		{0, 1},
		{0, 1, 2},
		{1, 2, 3},
	}, 4)
	in := FromHypergraph(h)
	// Both overlapping edges dirty: their mutual pair must appear exactly once.
	got, err := ConstructDirty(eng, in, 2, []uint32{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	want := []sparse.Edge{{U: 0, V: 1}, {U: 1, V: 2}}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

// TestIncrementalSCCMatchesFull is the end-to-end incremental s-CC check at
// the kernel layer: seed forest from the old hypergraph, Grow to the new ID
// space, absorb the dirty pairs, compare against a from-scratch computation
// on the grown hypergraph.
func TestIncrementalSCCMatchesFull(t *testing.T) {
	eng := parallel.NewEngine(4)
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 10; trial++ {
		numNodes := 6 + rng.Intn(20)
		oldSets := randSets(rng, 3+rng.Intn(12), numNodes, 5)
		newSets := randSets(rng, 1+rng.Intn(6), numNodes, 5)
		all := append(append([][]uint32(nil), oldSets...), newSets...)
		oldH := core.FromSets(oldSets, numNodes)
		newH := core.FromSets(all, numNodes)
		for s := 1; s <= 3; s++ {
			forest, err := SComponentsForest(eng, FromHypergraph(oldH), s, Options{})
			if err != nil {
				t.Fatal(err)
			}
			forest.Grow(newH.NumEdges())
			var dirtyIDs []uint32
			for e := len(oldSets); e < len(all); e++ {
				dirtyIDs = append(dirtyIDs, uint32(e))
			}
			delta, err := ConstructDirty(eng, FromHypergraph(newH), s, dirtyIDs)
			if err != nil {
				t.Fatal(err)
			}
			if err := AbsorbPairs(eng, forest, delta); err != nil {
				t.Fatal(err)
			}
			want, err := SComponentsDirect(eng, FromHypergraph(newH), s, Options{})
			if err != nil {
				t.Fatal(err)
			}
			got := forest.Labels()
			if len(got) != len(want) {
				t.Fatalf("trial %d s=%d: label lengths %d vs %d", trial, s, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("trial %d s=%d: labels differ at %d: %d vs %d\n got %v\nwant %v",
						trial, s, i, got[i], want[i], got, want)
				}
			}
		}
	}
}

func TestAbsorbPairsEmpty(t *testing.T) {
	eng := parallel.NewEngine(2)
	f := unionfind.New(3)
	if err := AbsorbPairs(eng, f, nil); err != nil {
		t.Fatal(err)
	}
	for x, r := range f.Labels() {
		if r != uint32(x) {
			t.Fatalf("label[%d] = %d after absorbing no pairs", x, r)
		}
	}
}

// TestAbsorbPairsCancelledAtEveryPoll: one forest holds the components of
// the s-line pairs inside each half of the ID space; absorbing the pairs
// across the halves, which merges those fragments (hooking root under
// root, so their members sit two links from the new root), is cancelled at
// every poll. Each cancelled call returns the
// context's error, and every call that returns nil — the retries on the
// same forest included — leaves the unpruned kernel's labels.
func TestAbsorbPairsCancelledAtEveryPoll(t *testing.T) {
	eng := parallel.NewEngine(3)
	defer eng.Close()
	const s = 2
	in := FromHypergraph(gen.Community(gen.CommunityConfig{
		NumEdges: 400, NumNodes: 260, MeanEdgeSize: 5, SizeSkew: 1.5, MemberSkew: 0.6, Seed: 23,
	}))
	pairs, err := Construct(eng, in, s, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := SComponentsDirect(eng, in, s, Options{Prune: NoPrune})
	if err != nil {
		t.Fatal(err)
	}
	var inside, across []sparse.Edge
	half := uint32(in.IDSpace() / 2)
	for _, p := range pairs {
		if p.U < half == (p.V < half) {
			inside = append(inside, p)
		} else {
			across = append(across, p)
		}
	}
	forest := unionfind.New(in.IDSpace())
	if err := AbsorbPairs(eng, forest, inside); err != nil {
		t.Fatal(err)
	}
	paralleltest.CancelAtEveryPoll(t, eng, func(e *parallel.Engine) ([]uint32, error) {
		if err := AbsorbPairs(e, forest, across); err != nil {
			return nil, err
		}
		return forest.Labels(), nil
	}, func(got []uint32) error {
		if !slices.Equal(got, want) {
			return errors.New("labels differ from the unpruned kernel's")
		}
		return nil
	})
}
