package nwhy

import (
	"context"
	"slices"
	"testing"

	"nwhy/internal/gen"
)

func containmentFacade() *NWHypergraph {
	// Base toplexes {0..5}, {4..9}, {8..13} plus nested subsets of each.
	return FromSets([][]uint32{
		{0, 1, 2, 3, 4, 5},
		{4, 5, 6, 7, 8, 9},
		{8, 9, 10, 11, 12, 13},
		{0, 1, 2},
		{2, 3, 4, 5},
		{5, 6, 7},
		{8, 9},
		{10, 11, 12, 13},
		{14, 15}, // isolated toplex
	}, 16)
}

var allPrunes = []Prune{PruneAuto, PruneNone, PruneDegree, PruneConnectivity, PruneToplex}

// TestSConnectedComponentsCtxEveryPruneLevel is the one differential for the
// one-shot s-CC entry: every prune level, s from 0 (below any overlap) to 4
// (above most), on a cold and on a warm toplex cache, must label exactly
// like the materialized route (build the s-line graph, then CC on it) and
// like the unpruned kernel. Each cell gets a fresh handle, because
// PruneToplex warms the cache it runs on.
func TestSConnectedComponentsCtxEveryPruneLevel(t *testing.T) {
	inputs := map[string]func() *NWHypergraph{
		"containment": containmentFacade,
		"communities": func() *NWHypergraph {
			return Wrap(gen.Community(gen.CommunityConfig{
				NumEdges: 120, NumNodes: 90, MeanEdgeSize: 5, SizeSkew: 1.5, MemberSkew: 0.6, Seed: 19,
			}))
		},
	}
	ctx := context.Background()
	for name, build := range inputs {
		for s := 0; s <= 4; s++ {
			ref := build()
			materialized := ref.SLineGraph(s, true).SConnectedComponents()
			unpruned, err := ref.SConnectedComponentsCtx(ctx, s, PruneNone)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(unpruned, materialized) {
				t.Fatalf("%s s=%d: PruneNone diverges from the materialized route", name, s)
			}
			for _, warm := range []bool{false, true} {
				for _, p := range allPrunes {
					g := build()
					if warm {
						g.Toplexes()
					}
					got, err := g.SConnectedComponentsCtx(ctx, s, p)
					if err != nil {
						t.Fatal(err)
					}
					if !slices.Equal(got, materialized) {
						t.Fatalf("%s s=%d prune=%v warm=%v: labels diverge from the materialized route", name, s, p, warm)
					}
					if wantWarm := warm || p == PruneToplex; g.toplexCacheWarm() != wantWarm {
						t.Fatalf("%s s=%d prune=%v warm=%v: toplex cache warm = %v", name, s, p, warm, !wantWarm)
					}
				}
			}
			// The shim is the PruneAuto column.
			if !slices.Equal(ref.SConnectedComponents(s), materialized) {
				t.Fatalf("%s s=%d: SConnectedComponents diverges from the materialized route", name, s)
			}
		}
	}
}

func TestPruneAutoUpgradesOnWarmToplexCache(t *testing.T) {
	g := containmentFacade()
	if g.toplexCacheWarm() {
		t.Fatal("fresh handle should have a cold toplex cache")
	}
	want := g.SConnectedComponents(2)
	// Cold cache: PruneAuto must not have paid for toplexes speculatively.
	if g.toplexCacheWarm() {
		t.Fatal("PruneAuto warmed the toplex cache on a cold handle")
	}
	// PruneToplex forces and caches the cover; PruneAuto then upgrades.
	if _, err := g.SConnectedComponentsCtx(context.Background(), 2, PruneToplex); err != nil {
		t.Fatal(err)
	}
	if !g.toplexCacheWarm() {
		t.Fatal("PruneToplex should warm the toplex cache")
	}
	if got := g.SConnectedComponents(2); !slices.Equal(got, want) {
		t.Fatal("warm-cache PruneAuto labels diverge from cold-cache run")
	}
}

func TestToplexCacheInvalidatedByCommit(t *testing.T) {
	g := containmentFacade()
	before := g.Toplexes()
	if !g.toplexCacheWarm() {
		t.Fatal("Toplexes should warm the cache")
	}
	m, err := g.BeginMutation()
	if err != nil {
		t.Fatal(err)
	}
	// A new 3-node hyperedge strictly containing {14,15} demotes that toplex.
	if _, err := m.AddEdge([]uint32{14, 15, 3}); err != nil {
		t.Fatal(err)
	}
	if err := m.Commit(); err != nil {
		t.Fatal(err)
	}
	if g.toplexCacheWarm() {
		t.Fatal("Commit should invalidate the toplex cache")
	}
	after := g.Toplexes()
	if slices.Contains(after, 8) {
		t.Fatalf("edge 8 should no longer be maximal after commit: %v", after)
	}
	if slices.Equal(before, after) {
		t.Fatal("toplex set should change after the commit")
	}
	// Toplex-pruned components still match the unpruned kernel on the new
	// snapshot.
	ctx := context.Background()
	pruned, err := g.SConnectedComponentsCtx(ctx, 1, PruneToplex)
	if err != nil {
		t.Fatal(err)
	}
	unpruned, err := g.SConnectedComponentsCtx(ctx, 1, PruneNone)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(pruned, unpruned) {
		t.Fatal("post-commit toplex-pruned labels diverge from the unpruned kernel")
	}
}

func TestToplexesReturnsCopy(t *testing.T) {
	g := containmentFacade()
	a := g.Toplexes()
	if len(a) == 0 {
		t.Fatal("expected toplexes")
	}
	a[0] = 999
	if b := g.Toplexes(); b[0] == 999 {
		t.Fatal("Toplexes exposed the cached slice")
	}
}

func TestSConnectedComponentsCtxCancel(t *testing.T) {
	g := containmentFacade()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, p := range allPrunes {
		if _, err := g.SConnectedComponentsCtx(ctx, 2, p); err == nil {
			t.Fatalf("prune=%v: cancelled run returned nil error", p)
		}
	}
	// The cancelled toplex attempt must not have poisoned the cache.
	if g.toplexCacheWarm() {
		t.Fatal("cancelled run populated the toplex cache")
	}
	if labels, err := g.SConnectedComponentsCtx(context.Background(), 2, PruneToplex); err != nil || len(labels) != g.NumEdges() {
		t.Fatalf("post-cancel retry failed: %v", err)
	}
}

func TestPruneStrings(t *testing.T) {
	for want, p := range map[string]Prune{
		"auto": PruneAuto, "none": PruneNone, "degree": PruneDegree,
		"connectivity": PruneConnectivity, "toplex": PruneToplex,
	} {
		if p.String() != want {
			t.Fatalf("String() = %q, want %q", p.String(), want)
		}
	}
}
