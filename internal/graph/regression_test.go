package graph

import (
	"context"
	"testing"

	"nwhy/internal/parallel"
)

// TestMISSelectionPhaseRaceDiscipline pins the atomic discipline of the
// MIS selection phase (every state[] element access inside the parallel
// rounds goes through sync/atomic). Running a dense graph on a
// multi-worker engine makes the selection and knock-out phases overlap
// heavily, so a reintroduced plain read of a neighbour's state shows up
// under -race.
func TestMISSelectionPhaseRaceDiscipline(t *testing.T) {
	eng := parallel.NewEngine(4)
	defer eng.Close()
	g := randomGraph(400, 4000, 7)
	for seed := int64(0); seed < 4; seed++ {
		set := MaximalIndependentSet(eng, g, seed)
		if !IsMaximalIndependentSet(g, set) {
			t.Fatalf("seed %d: invalid MIS", seed)
		}
	}
}

// TestCCAfforestCancelledEngine pins the per-round cancellation check of
// CCAfforest's neighbor-sampling loop (the invariant nwhy-lint's
// ctx-at-rounds check enforces): on a cancelled engine the driver must
// return promptly with a well-formed (if incomplete) labelling instead of
// spinning rounds whose parallel loops all no-op.
func TestCCAfforestCancelledEngine(t *testing.T) {
	eng := parallel.NewEngine(2)
	defer eng.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ceng := eng.WithContext(ctx)

	g := randomGraph(200, 1000, 3)
	comp := CCAfforest(ceng, g)
	if len(comp) != g.NumVertices() {
		t.Fatalf("len(comp) = %d, want %d", len(comp), g.NumVertices())
	}
	// No parallel round ran, so every vertex keeps its identity label.
	for v, c := range comp {
		if c != uint32(v) {
			t.Fatalf("comp[%d] = %d on a cancelled engine, want identity", v, c)
		}
	}
	if err := ceng.Err(); err == nil {
		t.Fatal("cancelled engine reports no error")
	}

	// The same engine handle without the context still computes correctly.
	want := CanonicalizeComponents(ccOracle(g))
	got := CanonicalizeComponents(CCAfforest(eng, g))
	for v := range want {
		if got[v] != want[v] {
			t.Fatalf("comp[%d] = %d, want %d", v, got[v], want[v])
		}
	}
}
