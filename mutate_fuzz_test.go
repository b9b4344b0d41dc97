package nwhy

import (
	"context"
	"slices"
	"testing"

	"nwhy/internal/core"
)

// FuzzMutateCompact drives a random mutation script — decoded from the fuzz
// bytes as (op, arg) pairs, committed in small batches — through the
// overlay/compaction path, maintaining an IncrementalSCC view across the
// commits. After every commit the mutated handle is checked differentially
// against a hypergraph rebuilt from scratch from the same live edge sets:
// structural validity, bit-identical incidence, identical s-CC labels (the
// incremental view and a direct recompute), the memoised toplexes against
// brute force on the new snapshot, and identical s-line pairs from
// an s-line handle carried across the commits through RefreshSLineGraphCtx
// (current after a no-op commit, rebuilt after any other).
func FuzzMutateCompact(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x01, 0x02, 0x03, 0x04, 0x05, 0x06})
	f.Add([]byte{0x00, 0x00, 0x07, 0x01, 0x00, 0x02, 0x09, 0x05})
	f.Add([]byte{0xff, 0x3c, 0x80, 0x11, 0x05, 0x00, 0x21, 0x42, 0x00, 0x01})
	f.Fuzz(func(t *testing.T, data []byte) {
		ctx := context.Background()
		g := FromSets([][]uint32{
			{0, 1, 2},
			{1, 2, 3},
			{4, 5},
			{5, 6},
		}, 8)
		scc := g.IncrementalSCC(2)
		if _, _, err := scc.Labels(ctx); err != nil {
			t.Fatal(err)
		}
		lg := g.SLineGraph(2, true)
		const maxOps = 40
		ops := 0
		m, err := g.BeginMutation()
		if err != nil {
			t.Fatal(err)
		}
		staged := 0
		commit := func() {
			noop := m.Inserts() == 0 && m.Deletes() == 0
			if err := m.CommitCtx(ctx); err != nil {
				t.Fatalf("commit: %v", err)
			}
			// Differential: rebuild from scratch from the live sets.
			sets := make([][]uint32, g.NumEdges())
			for e := range sets {
				sets[e] = append([]uint32(nil), g.Incidence(e)...)
			}
			want := FromSets(sets, g.NumNodes())
			if err := g.Validate(); err != nil {
				t.Fatalf("mutated handle invalid: %v", err)
			}
			if !g.Hypergraph().Edges.Equal(want.Hypergraph().Edges) ||
				!g.Hypergraph().Nodes.Equal(want.Hypergraph().Nodes) {
				t.Fatal("compacted incidence differs from rebuild")
			}
			incLabels, _, err := scc.Labels(ctx)
			if err != nil {
				t.Fatal(err)
			}
			wantLabels := want.SConnectedComponents(2)
			for i := range incLabels {
				if incLabels[i] != wantLabels[i] {
					t.Fatalf("incremental s-CC label %d: %d vs rebuild %d", i, incLabels[i], wantLabels[i])
				}
			}
			// Dead rows are empty hyperedges, the toplex rule's corner case.
			if tops, want := g.Toplexes(), core.ToplexesBruteForce(g.Hypergraph()); !slices.Equal(tops, want) {
				t.Fatalf("toplexes after the commit: %v, brute force %v", tops, want)
			}
			wantHow := RefreshRebuilt
			if noop {
				wantHow = RefreshCurrent
			}
			refreshed, how, err := g.RefreshSLineGraphCtx(ctx, lg, ConstructOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if how != wantHow || (how == RefreshCurrent) != (refreshed == lg) || refreshed.Epoch() != g.Epoch() {
				t.Fatalf("refresh: how=%v (want %v), same handle=%v, epoch %d vs %d",
					how, wantHow, refreshed == lg, refreshed.Epoch(), g.Epoch())
			}
			lg = refreshed
			gp := lg.Pairs()
			wp := want.SLineGraph(2, true).Pairs()
			if len(gp) != len(wp) {
				t.Fatalf("s-line pairs: %d vs rebuild %d", len(gp), len(wp))
			}
			for i := range gp {
				if gp[i] != wp[i] {
					t.Fatalf("s-line pair %d: %v vs rebuild %v", i, gp[i], wp[i])
				}
			}
			m, err = g.BeginMutation()
			if err != nil {
				t.Fatal(err)
			}
			staged = 0
		}
		for i := 0; i+1 < len(data) && ops < maxOps; i += 2 {
			op, arg := data[i], data[i+1]
			ops++
			if op%5 == 0 && m.Edges() > 0 {
				// Remove: an already-dead target is an expected error (no-op).
				_ = m.RemoveEdge(uint32(arg) % uint32(m.Edges()))
			} else {
				deg := 1 + int(op%4)
				members := make([]uint32, deg)
				for j := range members {
					members[j] = uint32(int(arg)+j*(int(op)+1)) % uint32(g.NumNodes()+2)
				}
				if _, err := m.AddEdge(members); err != nil {
					t.Fatalf("add %v: %v", members, err)
				}
			}
			staged++
			if staged == 3 {
				commit()
			}
		}
		commit()
	})
}
