package slinegraph

import (
	"context"
	"slices"
	"testing"

	"nwhy/internal/core"
	"nwhy/internal/gen"
	"nwhy/internal/unionfind"
)

// containmentHypergraph builds a containment-rich input: most hyperedges are
// proper subsets of a base toplex, the shape where toplex pruning bites.
func containmentHypergraph(seed int64) *core.Hypergraph {
	return gen.Containment(gen.ContainmentConfig{
		NumBase: 30, NumNodes: 120, BaseSize: 10, SubsPerBase: 4,
		MemberSkew: 0.3, Seed: seed,
	})
}

func pruneTestInputs() []*core.Hypergraph {
	return []*core.Hypergraph{
		randomHypergraph(40, 25, 6, 11),
		containmentHypergraph(7),
	}
}

// TestConstructPruneInvariant pins the materializing entry points: every
// prune level yields the identical canonical pair list, because levels that
// would drop pairs (connectivity, toplex) clamp to the degree prefilter
// unless a components builder arms the forest.
func TestConstructPruneInvariant(t *testing.T) {
	for _, h := range pruneTestInputs() {
		in := FromHypergraph(h)
		for s := 1; s <= 4; s++ {
			base, err := Construct(teng, in, s, Options{Prune: NoPrune})
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range []Prune{AutoPrune, DegreePrune, ConnectivityPrune, ToplexPrune} {
				got, err := Construct(teng, in, s, Options{Prune: p})
				if err != nil {
					t.Fatal(err)
				}
				if !slices.Equal(got, base) {
					t.Fatalf("s=%d prune=%v: %d pairs, want %d (NoPrune)", s, p, len(got), len(base))
				}
			}
		}
	}
}

// TestSComponentsDirectPruneLevels pins the direct components builder across
// prune levels: the degree prefilter and the connected short-circuit must
// not change a single label relative to the unpruned baseline.
func TestSComponentsDirectPruneLevels(t *testing.T) {
	for _, h := range pruneTestInputs() {
		in := FromHypergraph(h)
		for s := 0; s <= 4; s++ {
			want := tSComponentsDirect(in, s, Options{Prune: NoPrune})
			for _, p := range []Prune{AutoPrune, DegreePrune, ConnectivityPrune} {
				got := tSComponentsDirect(in, s, Options{Prune: p})
				if !slices.Equal(got, want) {
					t.Fatalf("s=%d prune=%v: labels diverge from NoPrune baseline", s, p)
				}
			}
		}
	}
}

// TestSComponentsToplexMatchesDirect is the differential pin of the toplex
// path: labels must be bit-identical to SComponentsDirect for every counter,
// on random and containment-rich inputs, including the s=0 floor case.
func TestSComponentsToplexMatchesDirect(t *testing.T) {
	for _, h := range pruneTestInputs() {
		in := FromHypergraph(h)
		tops, cover := core.ToplexCover(teng, h)
		for s := 0; s <= 4; s++ {
			want := tSComponentsDirect(in, s, Options{Prune: NoPrune})
			for _, ctr := range allCounters {
				got, err := SComponentsToplex(teng, in, s, tops, cover, Options{Counter: ctr})
				if err != nil {
					t.Fatal(err)
				}
				if !slices.Equal(got, want) {
					t.Fatalf("s=%d counter=%v: toplex labels diverge from direct", s, ctr)
				}
			}
		}
	}
}

// TestSComponentsToplexOnlyToplexes covers the degenerate subset: when every
// hyperedge is maximal the toplex path is the direct path plus a no-op
// expansion.
func TestSComponentsToplexOnlyToplexes(t *testing.T) {
	h := paperHypergraph()
	tops, cover := core.ToplexCover(teng, h)
	if len(tops) != h.NumEdges() {
		t.Fatalf("paper example should be all-toplex, got %d of %d", len(tops), h.NumEdges())
	}
	for s := 1; s <= 2; s++ {
		want := tSComponentsDirect(FromHypergraph(h), s, Options{})
		got, err := SComponentsToplex(teng, FromHypergraph(h), s, tops, cover, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("s=%d: all-toplex labels diverge", s)
		}
	}
}

// TestPrunedComponentsSurfaceCancellation: both pruned builders must surface
// a pre-cancelled context as an error, not hang or return partial labels.
func TestPrunedComponentsSurfaceCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	h := containmentHypergraph(3)
	in := FromHypergraph(h)
	ceng := teng.WithContext(ctx)
	if _, err := SComponentsDirect(ceng, in, 2, Options{}); err == nil {
		t.Fatal("cancelled SComponentsDirect returned nil error")
	}
	tops, cover := core.ToplexCover(teng, h)
	if _, err := SComponentsToplex(ceng, in, 2, tops, cover, Options{}); err == nil {
		t.Fatal("cancelled SComponentsToplex returned nil error")
	}
}

// TestResolvePruneClamps pins the resolution policy table.
func TestResolvePruneClamps(t *testing.T) {
	forest := unionfind.New(8)
	cases := []struct {
		name string
		o    Options
		want Prune
	}{
		{"auto, no forest", Options{}, DegreePrune},
		{"auto, subset but no forest", Options{Subset: []uint32{0}}, DegreePrune},
		{"auto, forest", Options{forest: forest}, ConnectivityPrune},
		{"auto, forest+subset", Options{forest: forest, Subset: []uint32{0}}, ToplexPrune},
		{"connectivity without forest clamps", Options{Prune: ConnectivityPrune}, DegreePrune},
		{"toplex without forest clamps", Options{Prune: ToplexPrune}, DegreePrune},
		{"toplex without subset clamps", Options{Prune: ToplexPrune, forest: forest}, ConnectivityPrune},
		{"none stays none", Options{Prune: NoPrune, forest: forest}, NoPrune},
	}
	for _, c := range cases {
		if got := resolvePrune(c.o); got != c.want {
			t.Errorf("%s: resolvePrune = %v, want %v", c.name, got, c.want)
		}
	}
}

// FuzzPruneEquivalence fuzzes the full prune arsenal against the unpruned
// baseline on random hypergraphs: pair lists must be invariant and
// component labels bit-identical through both the short-circuit and the
// toplex path.
func FuzzPruneEquivalence(f *testing.F) {
	f.Add(int64(1), uint8(2))
	f.Add(int64(42), uint8(0))
	f.Add(int64(-7), uint8(4))
	f.Fuzz(func(t *testing.T, seed int64, sRaw uint8) {
		s := int(sRaw % 5)
		h := randomHypergraph(30, 18, 5, seed)
		in := FromHypergraph(h)

		basePairs, err := Construct(teng, in, s, Options{Prune: NoPrune})
		if err != nil {
			t.Fatal(err)
		}
		degPairs, err := Construct(teng, in, s, Options{Prune: DegreePrune})
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(degPairs, basePairs) {
			t.Fatalf("seed=%d s=%d: degree-pruned pairs diverge", seed, s)
		}

		want := tSComponentsDirect(in, s, Options{Prune: NoPrune})
		if got := tSComponentsDirect(in, s, Options{}); !slices.Equal(got, want) {
			t.Fatalf("seed=%d s=%d: short-circuit labels diverge", seed, s)
		}
		tops, cover := core.ToplexCover(teng, h)
		tgot, err := SComponentsToplex(teng, in, s, tops, cover, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(tgot, want) {
			t.Fatalf("seed=%d s=%d: toplex labels diverge", seed, s)
		}
	})
}
