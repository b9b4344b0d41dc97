package smetrics

import (
	"math"
	"reflect"
	"testing"

	"nwhy/internal/core"
	"nwhy/internal/slinegraph"
)

// chainHypergraph: e0..e4 where consecutive edges share exactly 2 nodes,
// and |e_i| = 3 except the last. The 2-line graph is the path e0-e1-e2-e3-e4.
func chainHypergraph() *core.Hypergraph {
	return core.FromSets([][]uint32{
		{0, 1, 2},
		{1, 2, 3},
		{2, 3, 4},
		{3, 4, 5},
		{4, 5, 6},
	}, 7)
}

func paperHypergraph() *core.Hypergraph {
	return core.FromSets([][]uint32{
		{0, 1, 2},
		{2, 3, 4},
		{4, 5, 6},
		{0, 6, 7, 8},
	}, 9)
}

func TestBuildShape(t *testing.T) {
	l := tBuild(paperHypergraph(), 1)
	if l.NumVertices() != 4 || l.NumEdges() != 4 {
		t.Fatalf("1-line graph: %d vertices, %d edges", l.NumVertices(), l.NumEdges())
	}
	if l.S != 1 {
		t.Fatalf("S = %d", l.S)
	}
}

func TestSDegreeAndNeighbors(t *testing.T) {
	l := tBuild(paperHypergraph(), 1)
	// Cycle e0-e1-e2-e3: every hyperedge has s-degree 2.
	for e := 0; e < 4; e++ {
		if l.SDegree(e) != 2 {
			t.Fatalf("SDegree(%d) = %d", e, l.SDegree(e))
		}
	}
	if got := l.SNeighbors(0); !reflect.DeepEqual(got, []uint32{1, 3}) {
		t.Fatalf("SNeighbors(0) = %v", got)
	}
}

func TestSConnectedComponents(t *testing.T) {
	l := tBuild(paperHypergraph(), 1)
	comp := l.SConnectedComponents()
	for e := 1; e < 4; e++ {
		if comp[e] != comp[0] {
			t.Fatalf("1-line graph should be one component: %v", comp)
		}
	}
	if !l.IsSConnected() {
		t.Fatal("IsSConnected should be true at s=1")
	}
	// At s=2 the paper example's line graph has no edges: 4 singletons.
	l2 := tBuild(paperHypergraph(), 2)
	if l2.IsSConnected() {
		t.Fatal("IsSConnected should be false at s=2")
	}
	comp2 := l2.SConnectedComponents()
	seen := map[uint32]bool{}
	for _, c := range comp2 {
		seen[c] = true
	}
	if len(seen) != 4 {
		t.Fatalf("s=2 components = %v", comp2)
	}
}

func TestIsSConnectedIgnoresIneligible(t *testing.T) {
	// Hyperedge {9} has |e| = 1 < s = 2: inert, must not break connectivity.
	h := core.FromSets([][]uint32{{0, 1, 2}, {1, 2, 3}, {9}}, 10)
	l := tBuild(h, 2)
	if !l.IsSConnected() {
		t.Fatal("ineligible hyperedge should be ignored by IsSConnected")
	}
	if l.Eligible(2) {
		t.Fatal("size-1 hyperedge eligible at s=2")
	}
}

func TestIsSConnectedVacuouslyFalse(t *testing.T) {
	h := core.FromSets([][]uint32{{0}}, 1)
	if tBuild(h, 2).IsSConnected() {
		t.Fatal("no eligible hyperedges should mean not s-connected")
	}
}

func TestSDistanceChain(t *testing.T) {
	l := tBuild(chainHypergraph(), 2)
	if d := l.SDistance(0, 4); d != 4 {
		t.Fatalf("SDistance(0,4) = %d, want 4", d)
	}
	if d := l.SDistance(1, 3); d != 2 {
		t.Fatalf("SDistance(1,3) = %d, want 2", d)
	}
	if d := l.SDistance(0, 0); d != 0 {
		t.Fatalf("SDistance(0,0) = %d", d)
	}
}

func TestSDistanceUnreachable(t *testing.T) {
	h := core.FromSets([][]uint32{{0, 1}, {5, 6}}, 7)
	l := tBuild(h, 1)
	if d := l.SDistance(0, 1); d != -1 {
		t.Fatalf("SDistance across components = %d, want -1", d)
	}
}

func TestSPathChain(t *testing.T) {
	l := tBuild(chainHypergraph(), 2)
	got := l.SPath(0, 4)
	want := []uint32{0, 1, 2, 3, 4}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("SPath = %v, want %v", got, want)
	}
	if l.SPath(0, 0) == nil || len(l.SPath(0, 0)) != 1 {
		t.Fatal("SPath to self should be [src]")
	}
}

func TestSPathNil(t *testing.T) {
	h := core.FromSets([][]uint32{{0, 1}, {5, 6}}, 7)
	if tBuild(h, 1).SPath(0, 1) != nil {
		t.Fatal("SPath across components should be nil")
	}
}

func TestSBetweennessChain(t *testing.T) {
	l := tBuild(chainHypergraph(), 2)
	bc := l.SBetweennessCentrality(false)
	// Path of 5: middle vertex has BC 4 (pairs (0,3),(0,4),(1,3),(1,4)).
	if bc[2] != 4 {
		t.Fatalf("BC = %v", bc)
	}
	if bc[0] != 0 || bc[4] != 0 {
		t.Fatalf("endpoints should be 0: %v", bc)
	}
}

func TestSClosenessChain(t *testing.T) {
	l := tBuild(chainHypergraph(), 2)
	c := l.SClosenessCentrality()
	// Middle of a 5-path: distances 2+1+1+2 = 6 -> 4/6.
	if math.Abs(c[2]-4.0/6.0) > 1e-9 {
		t.Fatalf("closeness = %v", c)
	}
	if got := l.SClosenessCentralityOf(2); math.Abs(got-c[2]) > 1e-12 {
		t.Fatal("single-vertex closeness differs")
	}
}

// TestSClosenessCentralityOfMatchesVector pins the one-BFS point form to the
// all-hyperedges sweep on a disconnected input: a 3-chain, a pair, and a
// hyperedge too small to be 2-adjacent to anything.
func TestSClosenessCentralityOfMatchesVector(t *testing.T) {
	l := tBuild(core.FromSets([][]uint32{
		{0, 1, 2}, {1, 2, 3}, {2, 3, 4},
		{10, 11, 12}, {11, 12, 13},
		{20},
	}, 21), 2)
	all := l.SClosenessCentrality()
	for e := range all {
		if got := l.SClosenessCentralityOf(e); got != all[e] {
			t.Fatalf("SClosenessCentralityOf(%d) = %v, SClosenessCentrality()[%d] = %v", e, got, e, all[e])
		}
	}
	if all[0] == 0 || all[3] == 0 || all[5] != 0 {
		t.Fatalf("closeness = %v: want positive scores in both components and 0 for the isolated hyperedge", all)
	}
}

func TestSHarmonicChain(t *testing.T) {
	l := tBuild(chainHypergraph(), 2)
	hc := l.SHarmonicClosenessCentrality()
	// Vertex 0: 1 + 1/2 + 1/3 + 1/4 = 2.0833.., / 4.
	want := (1 + 0.5 + 1.0/3 + 0.25) / 4
	if math.Abs(hc[0]-want) > 1e-9 {
		t.Fatalf("harmonic[0] = %v, want %v", hc[0], want)
	}
}

func TestSEccentricityChain(t *testing.T) {
	l := tBuild(chainHypergraph(), 2)
	ecc := l.SEccentricity()
	want := []float64{4, 3, 2, 3, 4}
	if !reflect.DeepEqual(ecc, want) {
		t.Fatalf("ecc = %v", ecc)
	}
	if l.SEccentricityOf(0) != 4 {
		t.Fatal("SEccentricityOf differs")
	}
	if l.SDiameter() != 4 {
		t.Fatalf("diameter = %v", l.SDiameter())
	}
}

// TestBuildWithMatchesBuild: a handle built over explicit options (the
// paper's Algorithm 2) is Build's handle, its lazily extracted pair list the
// kernel's.
func TestBuildWithMatchesBuild(t *testing.T) {
	h := chainHypergraph()
	queue2 := slinegraph.Options{Counter: slinegraph.IntersectionCounter}
	csr, err := slinegraph.ConstructCSR(teng, slinegraph.FromHypergraph(h), 2, queue2)
	if err != nil {
		t.Fatal(err)
	}
	viaQueue, err := BuildCSR(teng, h, 2, csr)
	if err != nil {
		t.Fatal(err)
	}
	direct := tBuild(h, 2)
	if !viaQueue.G.CSR().Equal(direct.G.CSR()) {
		t.Fatal("BuildCSR over Algorithm 2's CSR differs from Build")
	}
	if pairs, _ := slinegraph.Construct(teng, slinegraph.FromHypergraph(h), 2, queue2); !reflect.DeepEqual(viaQueue.Pairs(), pairs) {
		t.Fatalf("Pairs() = %v, the kernel's pair list is %v", viaQueue.Pairs(), pairs)
	}
	if !reflect.DeepEqual(viaQueue.SConnectedComponents(), direct.SConnectedComponents()) {
		t.Fatal("components differ")
	}
}

func TestSPageRankAndCoreness(t *testing.T) {
	l := tBuild(chainHypergraph(), 2)
	pr := l.SPageRank(0.85, 1e-10, 200)
	sum := 0.0
	for _, v := range pr {
		sum += v
	}
	if math.Abs(sum-1) > 1e-6 {
		t.Fatalf("s-PageRank sums to %v", sum)
	}
	core := l.SCoreness()
	for e, c := range core {
		if c != 1 {
			t.Fatalf("path coreness[%d] = %d", e, c)
		}
	}
}
