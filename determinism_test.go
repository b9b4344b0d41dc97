package nwhy

import (
	"reflect"
	"testing"
)

// The paper's algorithms are nondeterministic internally (work stealing,
// CAS races on equivalent parents) but every exposed result here is defined
// to be canonical: identical across worker counts and partition strategies.
// These tests sweep the thread count and assert bit-identical outputs.

func determinismFixture() *NWHypergraph {
	sets := make([][]uint32, 120)
	for i := range sets {
		// Overlapping windows plus a few long-range links: one big
		// component with nontrivial s-structure.
		sets[i] = []uint32{uint32(i), uint32(i + 1), uint32(i + 2), uint32((i * 7) % 130)}
	}
	return FromSets(sets, 131)
}

func TestCCDeterministicAcrossThreadCounts(t *testing.T) {
	hg := determinismFixture()
	defer SetNumThreads(0)
	var want *struct {
		e, n []uint32
	}
	for _, threads := range []int{1, 2, 4, 8} {
		SetNumThreads(threads)
		for _, v := range []CCVariant{CCHyper, CCAdjoinAfforest, CCAdjoinLabelProp, CCHygraBaseline} {
			r := hg.ConnectedComponents(v)
			if want == nil {
				want = &struct{ e, n []uint32 }{r.EdgeComp, r.NodeComp}
				continue
			}
			if !reflect.DeepEqual(r.EdgeComp, want.e) || !reflect.DeepEqual(r.NodeComp, want.n) {
				t.Fatalf("CC variant %d at %d threads differs", v, threads)
			}
		}
	}
}

func TestBFSDeterministicAcrossThreadCounts(t *testing.T) {
	hg := determinismFixture()
	defer SetNumThreads(0)
	want := hg.BFS(0, BFSTopDown)
	for _, threads := range []int{1, 2, 4, 8} {
		SetNumThreads(threads)
		for _, v := range []BFSVariant{BFSTopDown, BFSBottomUp, BFSAdjoin, BFSHygraBaseline, BFSDirectionOptimizing} {
			r := hg.BFS(0, v)
			if !reflect.DeepEqual(r.EdgeLevel, want.EdgeLevel) || !reflect.DeepEqual(r.NodeLevel, want.NodeLevel) {
				t.Fatalf("BFS variant %d at %d threads differs", v, threads)
			}
		}
	}
}

func TestSLineDeterministicAcrossThreadCounts(t *testing.T) {
	hg := determinismFixture()
	defer SetNumThreads(0)
	want := hg.SLineGraph(2, true).Pairs()
	for _, threads := range []int{1, 2, 4, 8} {
		SetNumThreads(threads)
		for _, strat := range []Strategy{StrategyAuto, StrategyHashmap, StrategyDense, StrategyIntersection} {
			got := hg.SLineGraphWith(2, true, ConstructOptions{Strategy: strat}).Pairs()
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%v at %d threads differs", strat, threads)
			}
		}
	}
}

func TestToplexesDeterministicAcrossThreadCounts(t *testing.T) {
	hg := determinismFixture()
	defer SetNumThreads(0)
	want := hg.Toplexes()
	for _, threads := range []int{1, 3, 8} {
		SetNumThreads(threads)
		if got := hg.Toplexes(); !reflect.DeepEqual(got, want) {
			t.Fatalf("toplexes at %d threads differ", threads)
		}
	}
}

func TestHyperAlgFacade(t *testing.T) {
	hg := determinismFixture()
	pr := hg.HyperPageRank(0.85, 1e-9, 200)
	sum := 0.0
	for _, v := range pr {
		sum += v
	}
	if sum < 0.999 || sum > 1.001 {
		t.Fatalf("HyperPageRank sums to %v", sum)
	}
	core := hg.HyperCoreness()
	if len(core) != hg.NumNodes() {
		t.Fatal("HyperCoreness length wrong")
	}
	for v, c := range core {
		if c < 0 || c > hg.NodeDegree(v) {
			t.Fatalf("core[%d] = %d out of range", v, c)
		}
	}
}

func TestSMISFacade(t *testing.T) {
	hg := determinismFixture()
	lg := hg.SLineGraph(1, true)
	set := lg.SMaximalIndependentSet(7)
	// Independence: no two selected hyperedges may be 1-adjacent.
	for e := 0; e < lg.NumVertices(); e++ {
		if !set[e] {
			continue
		}
		for _, f := range lg.SNeighbors(e) {
			if set[f] {
				t.Fatalf("hyperedges %d and %d both selected but s-adjacent", e, f)
			}
		}
	}
}
