package nwhy

import (
	"context"
	"errors"
	"math/rand"
	"testing"
)

func mutBase() *NWHypergraph {
	return FromSets([][]uint32{
		{0, 1, 2},
		{1, 2, 3},
		{4, 5},
		{5, 6},
	}, 7)
}

func TestMutationCommitSwapsSnapshot(t *testing.T) {
	g := mutBase()
	if g.Epoch() != 0 {
		t.Fatalf("fresh epoch = %d", g.Epoch())
	}
	before := g.Hypergraph()
	m, err := g.BeginMutation()
	if err != nil {
		t.Fatal(err)
	}
	id, err := m.AddEdge([]uint32{2, 3, 4})
	if err != nil {
		t.Fatal(err)
	}
	if id != 4 {
		t.Fatalf("new edge ID = %d", id)
	}
	// Readers see the old snapshot until Commit.
	if g.NumEdges() != 4 {
		t.Fatalf("pre-commit NumEdges = %d", g.NumEdges())
	}
	if err := m.Commit(); err != nil {
		t.Fatal(err)
	}
	if g.Epoch() != 1 || g.NumEdges() != 5 {
		t.Fatalf("post-commit epoch=%d edges=%d", g.Epoch(), g.NumEdges())
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	// The pre-commit hypergraph is untouched (readers holding it are safe).
	if before.NumEdges() != 4 {
		t.Fatalf("old snapshot mutated: %d edges", before.NumEdges())
	}
	// A spent mutation rejects further use.
	if _, err := m.AddEdge([]uint32{0}); err == nil {
		t.Fatal("spent mutation accepted AddEdge")
	}
	if err := m.Commit(); err == nil {
		t.Fatal("double commit succeeded")
	}
}

func TestMutationEmptyCommitIsNoOp(t *testing.T) {
	g := mutBase()
	m, err := g.BeginMutation()
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Commit(); err != nil {
		t.Fatal(err)
	}
	if g.Epoch() != 0 {
		t.Fatalf("empty commit bumped epoch to %d", g.Epoch())
	}
}

func TestMutationConflict(t *testing.T) {
	g := mutBase()
	m1, err := g.BeginMutation()
	if err != nil {
		t.Fatal(err)
	}
	m2, err := g.BeginMutation()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m1.AddEdge([]uint32{0, 6}); err != nil {
		t.Fatal(err)
	}
	if _, err := m2.AddEdge([]uint32{1, 6}); err != nil {
		t.Fatal(err)
	}
	if err := m1.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := m2.Commit(); !errors.Is(err, ErrMutationConflict) {
		t.Fatalf("want ErrMutationConflict, got %v", err)
	}
	if g.Epoch() != 1 || g.NumEdges() != 5 {
		t.Fatalf("loser leaked state: epoch=%d edges=%d", g.Epoch(), g.NumEdges())
	}
}

func TestMutationWeightedRejected(t *testing.T) {
	g, err := New([]uint32{0, 0, 1}, []uint32{0, 1, 1}, []float64{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.BeginMutation(); err == nil {
		t.Fatal("weighted hypergraph accepted a mutation")
	}
}

func TestMutateWrapperAndRemove(t *testing.T) {
	g := mutBase()
	err := g.Mutate(func(m *Mutation) error {
		if err := m.RemoveEdge(2); err != nil {
			return err
		}
		_, err := m.AddEdge([]uint32{0, 6})
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	// Removed ID was recycled by the insert in the same batch.
	if g.NumEdges() != 4 {
		t.Fatalf("NumEdges = %d", g.NumEdges())
	}
	got := g.Incidence(2)
	if len(got) != 2 || got[0] != 0 || got[1] != 6 {
		t.Fatalf("edge 2 = %v", got)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestMutateThenCompactMatchesRebuild is the facade-level differential test:
// after an arbitrary mutation history, the handle must behave identically to
// one built from scratch from the same live sets — structure, stats, s-CC
// labels, and s-line pairs.
func TestMutateThenCompactMatchesRebuild(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 8; trial++ {
		numNodes := 6 + rng.Intn(20)
		var sets [][]uint32
		for e := 0; e < 3+rng.Intn(10); e++ {
			d := 1 + rng.Intn(4)
			s := make([]uint32, d)
			for j := range s {
				s[j] = uint32(rng.Intn(numNodes))
			}
			sets = append(sets, s)
		}
		g := FromSets(sets, numNodes)
		live := map[uint32]bool{}
		for e := 0; e < g.NumEdges(); e++ {
			live[uint32(e)] = true
		}
		for batch := 0; batch < 4; batch++ {
			err := g.Mutate(func(m *Mutation) error {
				for op := 0; op < 6; op++ {
					if rng.Intn(4) == 0 && len(live) > 1 {
						var victim uint32
						n := rng.Intn(len(live))
						for e := range live {
							if n == 0 {
								victim = e
								break
							}
							n--
						}
						if err := m.RemoveEdge(victim); err != nil {
							return err
						}
						delete(live, victim)
					} else {
						d := 1 + rng.Intn(4)
						s := make([]uint32, d)
						for j := range s {
							s[j] = uint32(rng.Intn(numNodes))
						}
						id, err := m.AddEdge(s)
						if err != nil {
							return err
						}
						live[id] = true
					}
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		rebuiltSets := make([][]uint32, g.NumEdges())
		for e := range rebuiltSets {
			rebuiltSets[e] = append([]uint32(nil), g.Incidence(e)...)
		}
		want := FromSets(rebuiltSets, g.NumNodes())
		if !g.Hypergraph().Edges.Equal(want.Hypergraph().Edges) {
			t.Fatalf("trial %d: incidence mismatch vs rebuild", trial)
		}
		for s := 1; s <= 2; s++ {
			gl := g.SConnectedComponents(s)
			wl := want.SConnectedComponents(s)
			for i := range gl {
				if gl[i] != wl[i] {
					t.Fatalf("trial %d s=%d: labels differ at %d", trial, s, i)
				}
			}
			gp := g.SLineGraph(s, true).Pairs()
			wp := want.SLineGraph(s, true).Pairs()
			if len(gp) != len(wp) {
				t.Fatalf("trial %d s=%d: %d pairs vs %d", trial, s, len(gp), len(wp))
			}
			for i := range gp {
				if gp[i] != wp[i] {
					t.Fatalf("trial %d s=%d: pair %d differs", trial, s, i)
				}
			}
		}
	}
}

func TestIncrementalSCCInsertOnly(t *testing.T) {
	ctx := context.Background()
	g := mutBase()
	scc := g.IncrementalSCC(2)
	labels, inc, err := scc.Labels(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if inc {
		t.Fatal("first call cannot be incremental")
	}
	wantFirst := g.SConnectedComponents(2)
	for i := range labels {
		if labels[i] != wantFirst[i] {
			t.Fatalf("initial labels differ at %d", i)
		}
	}
	// Insert-only batch: bridge edges 0/1 and 2/3 at s=2.
	err = g.Mutate(func(m *Mutation) error {
		if _, err := m.AddEdge([]uint32{4, 5, 6}); err != nil {
			return err
		}
		_, err := m.AddEdge([]uint32{0, 1, 3})
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	labels, inc, err = scc.Labels(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !inc {
		t.Fatal("insert-only refresh was not incremental")
	}
	want := g.SConnectedComponents(2)
	if len(labels) != len(want) {
		t.Fatalf("label lengths: %d vs %d", len(labels), len(want))
	}
	for i := range labels {
		if labels[i] != want[i] {
			t.Fatalf("labels differ at %d: %d vs %d", i, labels[i], want[i])
		}
	}
	// Cached at current epoch: still incremental, same labels.
	again, inc, err := scc.Labels(ctx)
	if err != nil || !inc {
		t.Fatalf("cached call: inc=%v err=%v", inc, err)
	}
	for i := range again {
		if again[i] != want[i] {
			t.Fatalf("cached labels differ at %d", i)
		}
	}
	incs, fulls := scc.Counts()
	if fulls != 1 || incs != 2 {
		t.Fatalf("counts: incs=%d fulls=%d", incs, fulls)
	}
}

func TestIncrementalSCCDeleteForcesRecompute(t *testing.T) {
	ctx := context.Background()
	g := mutBase()
	scc := g.IncrementalSCC(1)
	if _, _, err := scc.Labels(ctx); err != nil {
		t.Fatal(err)
	}
	if err := g.Mutate(func(m *Mutation) error { return m.RemoveEdge(1) }); err != nil {
		t.Fatal(err)
	}
	labels, inc, err := scc.Labels(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if inc {
		t.Fatal("post-delete refresh must be a full recompute")
	}
	want := g.SConnectedComponents(1)
	for i := range labels {
		if labels[i] != want[i] {
			t.Fatalf("labels differ at %d", i)
		}
	}
}

func TestRefreshSLineGraph(t *testing.T) {
	ctx := context.Background()
	g := mutBase()
	lg := g.SLineGraph(2, true)
	got, how, err := g.RefreshSLineGraphCtx(ctx, lg, ConstructOptions{})
	if err != nil || how != RefreshCurrent || got != lg {
		t.Fatalf("current handle: how=%v err=%v same=%v", how, err, got == lg)
	}
	// Insert-only: rebuilt, and identical to a fresh construction.
	err = g.Mutate(func(m *Mutation) error {
		_, err := m.AddEdge([]uint32{1, 2, 5})
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	patched, how, err := g.RefreshSLineGraphCtx(ctx, lg, ConstructOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if how != RefreshRebuilt {
		t.Fatalf("insert-only refresh: how=%v", how)
	}
	fresh := g.SLineGraph(2, true)
	fp, pp := fresh.Pairs(), patched.Pairs()
	if len(fp) != len(pp) {
		t.Fatalf("patched %d pairs vs fresh %d", len(pp), len(fp))
	}
	for i := range fp {
		if fp[i] != pp[i] {
			t.Fatalf("pair %d: patched %v vs fresh %v", i, pp[i], fp[i])
		}
	}
	if patched.Epoch() != g.Epoch() {
		t.Fatalf("patched epoch %d vs handle %d", patched.Epoch(), g.Epoch())
	}
	// Deletion: rebuilt.
	if err := g.Mutate(func(m *Mutation) error { return m.RemoveEdge(0) }); err != nil {
		t.Fatal(err)
	}
	rebuilt, how, err := g.RefreshSLineGraphCtx(ctx, patched, ConstructOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if how != RefreshRebuilt {
		t.Fatalf("post-delete refresh: how=%v", how)
	}
	fresh = g.SLineGraph(2, true)
	fp, rp := fresh.Pairs(), rebuilt.Pairs()
	if len(fp) != len(rp) {
		t.Fatalf("rebuilt %d pairs vs fresh %d", len(rp), len(fp))
	}
	for i := range fp {
		if fp[i] != rp[i] {
			t.Fatalf("pair %d: rebuilt %v vs fresh %v", i, rp[i], fp[i])
		}
	}
}

func TestAdjoinInvalidatedByCommit(t *testing.T) {
	g := mutBase()
	a := g.Adjoin()
	if a != g.Adjoin() {
		t.Fatal("adjoin not cached within an epoch")
	}
	err := g.Mutate(func(m *Mutation) error {
		_, err := m.AddEdge([]uint32{0, 3})
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	b := g.Adjoin()
	if a == b {
		t.Fatal("stale adjoin served after commit")
	}
	if b.NumRealEdges != 5 {
		t.Fatalf("rebuilt adjoin has %d hyperedges", b.NumRealEdges)
	}
}
