package sparse

import (
	"context"
	"math/rand"
	"sort"
	"testing"

	"nwhy/internal/parallel"
)

func randomEdges(n int, space uint32, seed int64) []Edge {
	rng := rand.New(rand.NewSource(seed))
	edges := make([]Edge, n)
	for i := range edges {
		edges[i] = Edge{U: rng.Uint32() % space, V: rng.Uint32() % space}
	}
	return edges
}

// sortEdgesRef is the comparison sort the radix path replaced; parity with
// it is the acceptance bar.
func sortEdgesRef(edges []Edge) {
	sort.Slice(edges, func(a, b int) bool {
		if edges[a].U != edges[b].U {
			return edges[a].U < edges[b].U
		}
		return edges[a].V < edges[b].V
	})
}

func TestSortEdgesMatchesComparisonSort(t *testing.T) {
	for _, n := range []int{0, 1, 10, 1 << 10, 1 << 14} {
		got := randomEdges(n, 1<<16, int64(n))
		want := append([]Edge(nil), got...)
		sortEdgesRef(want)
		sortEdgesOn(shared(), got)
		if !equalEdges(got, want) {
			t.Fatalf("n=%d: radix order differs from comparison sort", n)
		}
	}
}

func TestSortOnEngine(t *testing.T) {
	eng := parallel.NewEngine(4)
	defer eng.Close()
	el := &EdgeList{NumVertices: 1 << 16, Edges: randomEdges(1<<14, 1<<16, 3)}
	want := append([]Edge(nil), el.Edges...)
	sortEdgesRef(want)
	el.SortOn(eng)
	if !equalEdges(el.Edges, want) {
		t.Fatal("SortOn order differs from comparison sort")
	}
}

func TestBiEdgeListDedupLargeParity(t *testing.T) {
	// Above the radix serial cutoff, with heavy duplication.
	edges := randomEdges(1<<14, 64, 7)
	bel := &BiEdgeList{N0: 64, N1: 64, Edges: append([]Edge(nil), edges...)}
	bel.Dedup()
	seen := map[Edge]bool{}
	for _, e := range edges {
		seen[e] = true
	}
	if len(bel.Edges) != len(seen) {
		t.Fatalf("dedup kept %d edges, want %d distinct", len(bel.Edges), len(seen))
	}
	for i := 1; i < len(bel.Edges); i++ {
		if edgeKey(bel.Edges[i-1]) >= edgeKey(bel.Edges[i]) {
			t.Fatalf("dedup output not strictly increasing at %d", i)
		}
	}
}

// First-weight-wins must survive the switch to the stable index radix sort,
// at a size that exercises the parallel path.
func TestBiEdgeListDedupWeightedFirstWinsLarge(t *testing.T) {
	const n = 1 << 14
	rng := rand.New(rand.NewSource(11))
	bel := &BiEdgeList{N0: 32, N1: 32}
	first := map[Edge]float64{}
	for i := 0; i < n; i++ {
		e := Edge{U: rng.Uint32() % 32, V: rng.Uint32() % 32}
		w := float64(i)
		bel.Edges = append(bel.Edges, e)
		bel.Weights = append(bel.Weights, w)
		if _, ok := first[e]; !ok {
			first[e] = w
		}
	}
	bel.Dedup()
	if len(bel.Edges) != len(first) {
		t.Fatalf("dedup kept %d, want %d", len(bel.Edges), len(first))
	}
	for i, e := range bel.Edges {
		if bel.Weights[i] != first[e] {
			t.Fatalf("edge %v kept weight %v, want first occurrence %v", e, bel.Weights[i], first[e])
		}
	}
}

func TestDedupOnCancelledEngine(t *testing.T) {
	eng := parallel.NewEngine(4)
	defer eng.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ceng := eng.WithContext(ctx)
	bel := &BiEdgeList{N0: 1 << 16, N1: 1 << 16, Edges: randomEdges(1<<15, 1<<16, 5)}
	n := bel.Len()
	if err := bel.DedupOn(ceng); err == nil {
		t.Fatal("DedupOn on a cancelled engine returned nil error")
	}
	if bel.Len() != n {
		t.Fatalf("cancelled DedupOn changed length: %d -> %d", n, bel.Len())
	}
}

func equalEdges(a, b []Edge) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
