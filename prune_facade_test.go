package nwhy

import (
	"context"
	"slices"
	"testing"

	"nwhy/internal/gen"
	"nwhy/internal/slinegraph"
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

// unprunedSCC is the reference every s-component differential compares
// against: the components kernel with every pruning heuristic off, on g's
// current snapshot.
func unprunedSCC(t *testing.T, g *NWHypergraph, s int) []uint32 {
	t.Helper()
	h := g.Hypergraph()
	labels, err := slinegraph.SComponentsDirect(g.Engine(), slinegraph.FromHypergraph(h), s, slinegraph.Options{Prune: slinegraph.NoPrune})
	if err != nil {
		t.Fatal(err)
	}
	return labels[:h.NumEdges()]
}

// TestSConnectedComponentsCtxColdAndWarmCover is the one differential for
// the one-shot s-CC entry: s from 0 (below any overlap) to 4 (above most),
// on a cold toplex cover (the connectivity route) and a warm one (the
// toplex route), must label exactly like the materialized route (build the
// s-line graph, then CC on it) and like the unpruned kernel. Neither route
// changes whether the cover is warm.
func TestSConnectedComponentsCtxColdAndWarmCover(t *testing.T) {
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
			if !slices.Equal(unprunedSCC(t, ref, s), materialized) {
				t.Fatalf("%s s=%d: the unpruned kernel diverges from the materialized route", name, s)
			}
			for _, warm := range []bool{false, true} {
				g := build()
				if warm {
					g.Toplexes()
				}
				got, err := g.SConnectedComponentsCtx(ctx, s)
				if err != nil {
					t.Fatal(err)
				}
				if !slices.Equal(got, materialized) {
					t.Fatalf("%s s=%d warm=%v: labels diverge from the materialized route", name, s, warm)
				}
				if g.toplexCacheWarm() != warm {
					t.Fatalf("%s s=%d warm=%v: toplex cache warm = %v", name, s, warm, !warm)
				}
				if !slices.Equal(g.SConnectedComponents(s), materialized) {
					t.Fatalf("%s s=%d warm=%v: SConnectedComponents diverges from the materialized route", name, s, warm)
				}
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
	// Cold cache: the one-shot must not have paid for toplexes speculatively.
	if g.toplexCacheWarm() {
		t.Fatal("SConnectedComponents warmed the toplex cache on a cold handle")
	}
	// Toplexes warms the cover; the one-shot then takes the toplex route.
	g.Toplexes()
	if !g.toplexCacheWarm() {
		t.Fatal("Toplexes should warm the toplex cache")
	}
	if got := g.SConnectedComponents(2); !slices.Equal(got, want) {
		t.Fatal("warm-cache labels diverge from the cold-cache run")
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
	// Toplex-route components still match the unpruned kernel on the new
	// snapshot (the Toplexes call above warmed its cover).
	pruned, err := g.SConnectedComponentsCtx(context.Background(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(pruned, unprunedSCC(t, g, 1)) {
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
	if _, err := g.SConnectedComponentsCtx(ctx, 2); err == nil {
		t.Fatal("cold cover: cancelled run returned nil error")
	}
	if _, err := g.ToplexesCtx(ctx); err == nil {
		t.Fatal("cancelled cover scan returned nil error")
	}
	// The cancelled cover scan must not have poisoned the cache.
	if g.toplexCacheWarm() {
		t.Fatal("cancelled run populated the toplex cache")
	}
	g.Toplexes()
	if _, err := g.SConnectedComponentsCtx(ctx, 2); err == nil {
		t.Fatal("warm cover: cancelled run returned nil error")
	}
	if labels, err := g.SConnectedComponentsCtx(context.Background(), 2); err != nil || len(labels) != g.NumEdges() {
		t.Fatalf("post-cancel retry failed: %v", err)
	}
}
