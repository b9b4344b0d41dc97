package nwhy

import (
	"fmt"
	"slices"
	"testing"

	"nwhy/internal/gen"
	"nwhy/internal/parallel"
	"nwhy/internal/parallel/paralleltest"
)

// sccCancelInput is big enough that every loop of the s-CC kernels, the
// forest compression included, splits over several grains.
func sccCancelInput() *NWHypergraph {
	return Wrap(gen.Community(gen.CommunityConfig{
		NumEdges: 400, NumNodes: 260, MeanEdgeSize: 5, SizeSkew: 1.5, MemberSkew: 0.6, Seed: 23,
	}))
}

// labelsOf is CancelAtEveryPoll's check: labels equal to the unpruned
// kernel's on g's current snapshot.
func labelsOf(t *testing.T, g *NWHypergraph, s int) func([]uint32) error {
	want := unprunedSCC(t, g, s)
	return func(got []uint32) error {
		if !slices.Equal(got, want) {
			return fmt.Errorf("labels differ from the unpruned kernel's")
		}
		return nil
	}
}

// TestSConnectedComponentsCtxCancelledAtEveryPoll: cancelled at any poll,
// on the connectivity route (cold toplex cover) and the toplex-only route
// (warm), SConnectedComponentsCtx returns the context's error and no labels,
// never labels of a half-compressed forest.
func TestSConnectedComponentsCtxCancelledAtEveryPoll(t *testing.T) {
	eng := parallel.NewEngine(3)
	defer eng.Close()
	const s = 2
	for _, warm := range []bool{false, true} {
		g := sccCancelInput().WithEngine(eng)
		if warm {
			g.Toplexes()
		}
		paralleltest.CancelAtEveryPoll(t, eng, func(e *parallel.Engine) ([]uint32, error) {
			return g.SConnectedComponentsCtx(e.Context(), s)
		}, labelsOf(t, g, s))
	}
}

// TestIncrementalSCCLabelsCancelledAtEveryPoll drives one view through its
// three paths — the first full build, the absorb of an insert-only commit,
// and the recompute after a removal — cancelling each at every poll. A
// cancelled call returns the context's error, never labels of a
// half-compressed forest; the next call on the same view, cancelled or
// live, still answers exactly.
func TestIncrementalSCCLabelsCancelledAtEveryPoll(t *testing.T) {
	eng := parallel.NewEngine(3)
	defer eng.Close()
	const s = 2
	g := sccCancelInput().WithEngine(eng)
	view := g.IncrementalSCC(s)
	labels := func(e *parallel.Engine) ([]uint32, error) {
		l, _, err := view.Labels(e.Context())
		return l, err
	}
	steps := []struct {
		name      string
		mutate    func(m *Mutation) error
		wantFulls int
	}{
		{"full", nil, 1},
		{"absorb", func(m *Mutation) error {
			// One hyperedge s-overlapping a member of every component: the
			// absorb hooks each component's root under another, so every
			// element of those components is left two links from its root
			// until the compression finishes.
			var bridge []uint32
			seen := map[uint32]bool{}
			for e, l := range unprunedSCC(t, g, s) {
				if members := g.Incidence(e); !seen[l] && len(members) >= s {
					seen[l] = true
					bridge = append(bridge, members[:s]...)
				}
			}
			_, err := m.AddEdge(bridge)
			return err
		}, 1},
		{"remove", func(m *Mutation) error { return m.RemoveEdge(7) }, 2},
	}
	for _, st := range steps {
		if st.mutate != nil {
			if err := g.Mutate(st.mutate); err != nil {
				t.Fatal(err)
			}
		}
		paralleltest.CancelAtEveryPoll(t, eng, labels, labelsOf(t, g, s))
		if _, fulls := view.Counts(); fulls != st.wantFulls {
			t.Fatalf("%s: %d full recomputes, want %d", st.name, fulls, st.wantFulls)
		}
	}
}
