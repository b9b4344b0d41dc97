package smetrics

import (
	"math"
	"reflect"
	"testing"

	"nwhy/internal/core"
)

// strengthChain: e0-e1 overlap 3, e1-e2 overlap 1, e0-e2 overlap 0...
// Actually e0={0,1,2,3}, e1={1,2,3,4}, e2={4,5}: |e0∩e1|=3, |e1∩e2|=1.
func strengthChain() *core.Hypergraph {
	return core.FromSets([][]uint32{
		{0, 1, 2, 3},
		{1, 2, 3, 4},
		{4, 5},
	}, 6)
}

func TestWeightedStrengthLookup(t *testing.T) {
	l := tBuildWeighted(strengthChain(), 1)
	if got := l.Strength(0, 1); got != 3 {
		t.Fatalf("Strength(0,1) = %d, want 3", got)
	}
	if got := l.Strength(1, 0); got != 3 {
		t.Fatalf("Strength is not symmetric: %d", got)
	}
	if got := l.Strength(1, 2); got != 1 {
		t.Fatalf("Strength(1,2) = %d, want 1", got)
	}
	if got := l.Strength(0, 2); got != 0 {
		t.Fatalf("Strength(0,2) = %d, want 0 (not s-incident)", got)
	}
	if l.Strength(0, 7) != 0 || l.Strength(7, 0) != 0 || l.Strength(-1, 0) != 0 {
		t.Fatal("Strength of an ID outside the graph is not 0")
	}
}

func TestWeightedDistance(t *testing.T) {
	l := tBuildWeighted(strengthChain(), 1)
	// 0 -> 1 costs 1/3; 1 -> 2 costs 1/1. Total 4/3.
	got := l.SDistanceWeighted(0, 2)
	if math.Abs(got-4.0/3.0) > 1e-9 {
		t.Fatalf("weighted distance = %v, want 4/3", got)
	}
	if l.SDistanceWeighted(0, 0) != 0 {
		t.Fatal("self distance != 0")
	}
}

func TestWeightedDistancePrefersStrongPath(t *testing.T) {
	// Two routes from e0 to e3: via e1 (strong overlaps: 3 then 3) or via
	// e2 (weak: 1 then 1). Hop distance ties at 2; strength-weighted
	// distance must pick the strong route (2/3 < 2).
	h := core.FromSets([][]uint32{
		{0, 1, 2, 10},      // e0
		{0, 1, 2, 3, 4, 5}, // e1: |e0∩e1|=3, |e1∩e3|=3
		{10, 20},           // e2: |e0∩e2|=1, |e2∩e3|=1
		{3, 4, 5, 20},      // e3
	}, 21)
	l := tBuildWeighted(h, 1)
	d := l.SDistanceWeighted(0, 3)
	if math.Abs(d-2.0/3.0) > 1e-9 {
		t.Fatalf("weighted distance = %v, want 2/3", d)
	}
	path := l.SPathWeighted(0, 3)
	if len(path) != 3 || path[1] != 1 {
		t.Fatalf("weighted path = %v, want through e1", path)
	}
}

func TestWeightedUnreachable(t *testing.T) {
	h := core.FromSets([][]uint32{{0, 1}, {5, 6}}, 7)
	l := tBuildWeighted(h, 1)
	if !math.IsInf(l.SDistanceWeighted(0, 1), 1) {
		t.Fatal("unreachable weighted distance should be +Inf")
	}
	if l.SPathWeighted(0, 1) != nil {
		t.Fatal("unreachable weighted path should be nil")
	}
}

func TestWeightedBetweennessRoutesThroughStrongBridge(t *testing.T) {
	// e1 bridges e0 and e3 with strong overlaps; e2 with weak ones. Under
	// hop counting they tie; under strength weighting e1 takes the traffic.
	h := core.FromSets([][]uint32{
		{0, 1, 2, 10},
		{0, 1, 2, 3, 4, 5},
		{10, 20},
		{3, 4, 5, 20},
	}, 21)
	l := tBuildWeighted(h, 1)
	bc := l.SBetweennessCentralityWeighted(false)
	if bc[1] <= bc[2] {
		t.Fatalf("strong bridge BC %v not above weak bridge %v", bc[1], bc[2])
	}
	// Unweighted BC splits the (0,3) pair between the two bridges equally.
	plain := l.SBetweennessCentrality(false)
	if plain[1] != plain[2] {
		t.Fatalf("hop-count BC should tie: %v vs %v", plain[1], plain[2])
	}
}

func TestWeightedClosenessFamily(t *testing.T) {
	l := tBuildWeighted(strengthChain(), 1)
	// Weighted distances: d(0,1)=1/3, d(1,2)=1, d(0,2)=4/3.
	c := l.SClosenessCentralityWeighted()
	// Vertex 1: sum = 1/3 + 1 = 4/3; c = 2/(4/3) = 1.5 (full reach, n=3).
	if math.Abs(c[1]-1.5) > 1e-9 {
		t.Fatalf("weighted closeness[1] = %v", c[1])
	}
	h := l.SHarmonicClosenessCentralityWeighted()
	// Vertex 0: 1/(1/3) + 1/(4/3) = 3 + 0.75 = 3.75, /2.
	if math.Abs(h[0]-3.75/2) > 1e-9 {
		t.Fatalf("weighted harmonic[0] = %v", h[0])
	}
	ecc := l.SEccentricityWeighted()
	if math.Abs(ecc[0]-4.0/3.0) > 1e-9 || math.Abs(ecc[1]-1.0) > 1e-9 {
		t.Fatalf("weighted ecc = %v", ecc)
	}
}

func TestWeightedEmbedsPlainSLineGraph(t *testing.T) {
	h := strengthChain()
	l := tBuildWeighted(h, 1)
	plain := tBuild(h, 1)
	if l.NumEdges() != plain.NumEdges() {
		t.Fatal("weighted wrapper changed the pair set")
	}
	if l.SDistance(0, 2) != plain.SDistance(0, 2) {
		t.Fatal("hop distances differ")
	}
	// One adjacency, three views: the plain graph carries no weights, the
	// weighted one 1/overlap on the same columns, both directions.
	if l.G.Weighted() || !l.G.CSR().Equal(plain.G.CSR()) || !reflect.DeepEqual(l.Pairs(), plain.Pairs()) {
		t.Fatal("the embedded handle is not the plain s-line graph")
	}
	if !l.WG.Weighted() || !l.WG.IsSymmetric() || &l.WG.CSR().Col[0] != &l.G.CSR().Col[0] {
		t.Fatal("the weighted view is not a symmetric weighted graph over the same columns")
	}
	for e := 0; e < l.NumVertices(); e++ {
		for k, f := range l.WG.Row(e) {
			if w := l.WG.Weights(e)[k]; w != 1/float64(l.Strength(e, int(f))) || w != 1/float64(l.Strength(int(f), e)) {
				t.Fatalf("arc (%d, %d) weighs %v, strength is %d", e, f, w, l.Strength(e, int(f)))
			}
		}
	}
	if w := l.WG.Weights(0)[0]; l.WG.Row(0)[0] != 1 || w != 1.0/3.0 {
		t.Fatalf("arc (0, %d) weighs %v, want (0, 1) at 1/3", l.WG.Row(0)[0], w)
	}
}
