package core

import (
	"context"
	"testing"

	"nwhy/internal/parallel"
	"nwhy/internal/parallel/paralleltest"
)

// pathHypergraph chains k hyperedges e_i = {v_i, v_{i+1}}, giving a
// traversal of ~2k rounds from e_0.
func pathHypergraph(k int) *Hypergraph {
	sets := make([][]uint32, k)
	for i := range sets {
		sets[i] = []uint32{uint32(i), uint32(i + 1)}
	}
	return FromSets(sets, k+1)
}

// TestHyperBFSCancelledBetweenRounds is the regression test for the round
// loop ignoring cancellation: a context that expires after the traversal is
// underway must abort HyperBFS at a round boundary and surface the error,
// for every variant.
func TestHyperBFSCancelledBetweenRounds(t *testing.T) {
	h := pathHypergraph(200)
	variants := map[string]func(*parallel.Engine, *Hypergraph, int) (*HyperBFSResult, error){
		"topdown":  HyperBFSTopDown,
		"bottomup": HyperBFSBottomUp,
		"diropt":   HyperBFSDirectionOptimizing,
	}
	for name, fn := range variants {
		// Let a handful of cancellation checks pass, then trip: the
		// ~400-round traversal cannot have finished by then.
		eng := teng.WithContext(paralleltest.NewCountdownCtx(20))
		r, err := fn(eng, h, 0)
		if err == nil {
			t.Fatalf("%s: expected cancellation error, got nil (result %v)", name, r != nil)
		}
		if r != nil {
			t.Fatalf("%s: expected nil result on cancellation", name)
		}
	}
}

// TestHyperBFSPreCancelled asserts an already-expired context aborts before
// any round runs.
func TestHyperBFSPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	eng := teng.WithContext(ctx)
	if _, err := HyperBFSTopDown(eng, pathHypergraph(3), 0); err == nil {
		t.Fatal("expected error from pre-cancelled engine")
	}
}
