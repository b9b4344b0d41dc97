package slinegraph

import (
	"math/rand"
	"testing"

	"nwhy/internal/core"
	"nwhy/internal/gen"
	"nwhy/internal/parallel"
	"nwhy/internal/sparse"
)

// TestConstructPermutationInvariant: relabeling both ID spaces of the
// hypergraph with arbitrary permutations and constructing the s-line graph
// yields exactly the original pair set once the hyperedge IDs are mapped
// back — the s-overlap kernel is permutation-invariant modulo relabeling.
func TestConstructPermutationInvariant(t *testing.T) {
	eng := parallel.NewEngine(4)
	defer eng.Close()
	graphs := []*core.Hypergraph{
		gen.Uniform(100, 70, 4, 1),
		gen.BipartitePowerLaw(150, 100, 700, 1.6, 2),
		gen.Community(gen.CommunityConfig{
			NumEdges: 120, NumNodes: 90, MeanEdgeSize: 5, SizeSkew: 1.5, MemberSkew: 0.3, Seed: 3,
		}),
	}
	rng := rand.New(rand.NewSource(7))
	shuffled := func(n int) []uint32 {
		p := make([]uint32, n)
		for i := range p {
			p[i] = uint32(i)
		}
		rng.Shuffle(n, func(a, b int) { p[a], p[b] = p[b], p[a] })
		return p
	}
	for gi, h := range graphs {
		// perm[newID] = oldID on both sides; inverses read inv[oldID] = newID.
		edgePerm := shuffled(h.NumEdges())
		nodePerm := shuffled(h.NumNodes())
		edgeInv := make([]uint32, len(edgePerm))
		for newID, oldID := range edgePerm {
			edgeInv[oldID] = uint32(newID)
		}
		nodeInv := make([]uint32, len(nodePerm))
		for newID, oldID := range nodePerm {
			nodeInv[oldID] = uint32(newID)
		}
		sets := make([][]uint32, h.NumEdges())
		for newID, oldID := range edgePerm {
			for _, v := range h.EdgeIncidence(int(oldID)) {
				sets[newID] = append(sets[newID], nodeInv[v])
			}
		}
		rh := core.FromSets(sets, h.NumNodes())
		if err := rh.Validate(eng); err != nil {
			t.Fatalf("graph %d: relabeled hypergraph invalid: %v", gi, err)
		}
		for _, s := range []int{1, 2, 3} {
			want, err := Construct(eng, FromHypergraph(h), s, Options{})
			if err != nil {
				t.Fatal(err)
			}
			got, err := Construct(eng, FromHypergraph(rh), s, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want) {
				t.Fatalf("graph %d s=%d: %d pairs on relabeled input, want %d", gi, s, len(got), len(want))
			}
			// Map the relabeled pairs back to the original hyperedge IDs and
			// re-canonicalize; the two sets must be identical.
			back := make([]sparse.Edge, len(got))
			for i, p := range got {
				back[i] = sparse.Edge{U: edgePerm[p.U], V: edgePerm[p.V]}
			}
			back = canonPairs(eng, back)
			for i := range want {
				if back[i] != want[i] {
					t.Fatalf("graph %d s=%d: pair %d is %v, want %v", gi, s, i, back[i], want[i])
				}
			}
			// Component structure must also be permutation-invariant: same
			// partition of hyperedges modulo the relabeling.
			wantLab, err := SComponentsDirect(eng, FromHypergraph(h), s, Options{})
			if err != nil {
				t.Fatal(err)
			}
			gotLab, err := SComponentsDirect(eng, FromHypergraph(rh), s, Options{})
			if err != nil {
				t.Fatal(err)
			}
			canon := make(map[uint32]uint32)
			for e := 0; e < h.NumEdges(); e++ {
				rep, ok := canon[wantLab[e]]
				if !ok {
					canon[wantLab[e]] = gotLab[edgeInv[e]]
					continue
				}
				if gotLab[edgeInv[e]] != rep {
					t.Fatalf("graph %d s=%d: component split by relabeling at hyperedge %d", gi, s, e)
				}
			}
			if distinct(wantLab) != distinct(gotLab) {
				t.Fatalf("graph %d s=%d: component counts differ", gi, s)
			}
		}
	}
}

func distinct(labels []uint32) int {
	seen := make(map[uint32]struct{}, len(labels))
	for _, l := range labels {
		seen[l] = struct{}{}
	}
	return len(seen)
}
