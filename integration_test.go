package nwhy

// End-to-end integration tests: full pipelines from generation through IO,
// representation conversion, construction algorithms, and analytics —
// exercising the package boundaries the unit tests cover in isolation.

import (
	"path/filepath"
	"reflect"
	"testing"

	"nwhy/internal/core"
	"nwhy/internal/gen"
	"nwhy/internal/slinegraph"
)

// TestPipelineGenerateSaveLoadAnalyze: generator -> Matrix Market file ->
// Load -> every representation -> exact + approximate analytics agree with
// the in-memory original.
func TestPipelineGenerateSaveLoadAnalyze(t *testing.T) {
	orig := Wrap(gen.Community(gen.CommunityConfig{
		NumEdges: 300, NumNodes: 150, MeanEdgeSize: 6,
		SizeSkew: 1.5, MemberSkew: 0.4, Seed: 42,
	}))
	path := filepath.Join(t.TempDir(), "pipe.mtx")
	if err := orig.Save(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.NumEdges() != orig.NumEdges() || loaded.NumIncidences() != orig.NumIncidences() {
		t.Fatal("shape changed through file round trip")
	}

	// Exact analytics must be identical on both handles.
	ccA := orig.ConnectedComponents(CCHyper)
	ccB := loaded.ConnectedComponents(CCAdjoinAfforest)
	if !reflect.DeepEqual(ccA.EdgeComp, ccB.EdgeComp) {
		t.Fatal("CC differs between original and file-loaded hypergraph")
	}
	bfsA := orig.BFS(0, BFSTopDown)
	bfsB := loaded.BFS(0, BFSAdjoin)
	if !reflect.DeepEqual(bfsA.EdgeLevel, bfsB.EdgeLevel) {
		t.Fatal("BFS differs between original and file-loaded hypergraph")
	}

	// Approximate analytics: identical line graphs.
	for s := 1; s <= 3; s++ {
		a := orig.SLineGraph(s, true)
		onAdjoin := PresetAlgorithm2
		onAdjoin.UseAdjoin = true
		b := loaded.SLineGraphWith(s, true, onAdjoin)
		if !reflect.DeepEqual(a.Pairs(), b.Pairs()) {
			t.Fatalf("s=%d line graphs differ across pipeline", s)
		}
	}
}

// TestPipelineAdjoinFileFlow: write MM, load it, derive the adjoin form from
// the bipartite one (the one adjoin constructor, g.Adjoin()), and verify
// algorithms on the adjoin graph match the bipartite path.
func TestPipelineAdjoinFileFlow(t *testing.T) {
	orig := Wrap(gen.Uniform(200, 200, 5, 7))
	path := filepath.Join(t.TempDir(), "adjoin.mtx")
	if err := orig.Save(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	a := loaded.Adjoin()
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
	got, _ := core.AdjoinCC(SharedEngine(), a, core.AdjoinAfforest)
	want := orig.ConnectedComponents(CCHyper)
	if !reflect.DeepEqual(got.EdgeComp, want.EdgeComp) || !reflect.DeepEqual(got.NodeComp, want.NodeComp) {
		t.Fatal("adjoin CC of the loaded file differs from bipartite CC")
	}
	// Algorithm 1 on the loaded file's adjoin graph.
	alg1 := slinegraph.Options{Counter: slinegraph.HashmapCounter}
	pairs, _ := slinegraph.Construct(SharedEngine(), slinegraph.FromAdjoin(a), 2, alg1)
	wantPairs := orig.SLineGraph(2, true).Pairs()
	if !reflect.DeepEqual(pairs, wantPairs) {
		t.Fatal("s-line graph on the loaded file's adjoin graph differs")
	}
}

// TestPipelineCollapseThenAnalyze: collapsing duplicates must not change
// the component structure seen by the representatives.
func TestPipelineCollapseThenAnalyze(t *testing.T) {
	// Build with deliberate duplicate hyperedges.
	sets := [][]uint32{
		{0, 1}, {0, 1}, {1, 2}, {3, 4}, {3, 4}, {3, 4},
	}
	hg := FromSets(sets, 5)
	collapsed, classes := hg.CollapseEdges()
	if collapsed.NumEdges() != 3 {
		t.Fatalf("collapsed to %d", collapsed.NumEdges())
	}
	ccFull := hg.ConnectedComponents(CCHyper)
	ccColl := collapsed.ConnectedComponents(CCHyper)
	// Labels live in the shared ID space, which shrinks when edges collapse
	// — compare the induced node *partitions* instead of raw labels.
	samePartition := func(a, b []uint32) bool {
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			for j := i + 1; j < len(a); j++ {
				if (a[i] == a[j]) != (b[i] == b[j]) {
					return false
				}
			}
		}
		return true
	}
	if !samePartition(ccFull.NodeComp, ccColl.NodeComp) {
		t.Fatalf("node partition changed by collapse: %v vs %v", ccFull.NodeComp, ccColl.NodeComp)
	}
	// Every class member had the same component in the full hypergraph.
	for _, class := range classes {
		for _, e := range class[1:] {
			if ccFull.EdgeComp[e] != ccFull.EdgeComp[class[0]] {
				t.Fatal("duplicate edges in different components?!")
			}
		}
	}
}

// TestPipelineWeightedAgainstPlain: the weighted construction, the plain
// construction, the ensemble, and the direct component path must all tell
// one consistent story on a generated workload.
func TestPipelineWeightedAgainstPlain(t *testing.T) {
	hg := Wrap(gen.RMAT(256, 256, 3000, 0.5, 0.2, 0.2, 9))
	ss := []int{1, 2, 3}
	ens := hg.SLineGraphEnsemble(ss, true)
	ensQ := hg.SLineGraphEnsembleQueue(ss, true)
	for _, s := range ss {
		plain := hg.SLineGraph(s, true)
		weighted := hg.SLineGraphWeighted(s)
		if !reflect.DeepEqual(weighted.Pairs(), plain.Pairs()) {
			t.Fatalf("s=%d: weighted pairs differ", s)
		}
		if !reflect.DeepEqual(ens[s].Pairs(), plain.Pairs()) {
			t.Fatalf("s=%d: ensemble differs", s)
		}
		if !reflect.DeepEqual(ensQ[s].Pairs(), plain.Pairs()) {
			t.Fatalf("s=%d: queue ensemble differs", s)
		}
		// Components via line graph CC == direct union-find.
		viaGraph := plain.SConnectedComponents()
		direct := hg.SConnectedComponents(s)
		if !reflect.DeepEqual(viaGraph, direct) {
			t.Fatalf("s=%d: component paths disagree", s)
		}
		// Every weighted strength is >= s.
		for _, p := range weighted.Pairs() {
			if got := weighted.Strength(int(p.U), int(p.V)); got < s {
				t.Fatalf("s=%d: strength %d of (%d, %d) below threshold", s, got, p.U, p.V)
			}
		}
	}
}

// TestPipelineEverythingOnPreset runs the full metric surface once on a
// small preset: smoke coverage that nothing panics and invariants hold
// together.
func TestPipelineEverythingOnPreset(t *testing.T) {
	p, err := gen.ByName("livejournal-mini")
	if err != nil {
		t.Fatal(err)
	}
	hg := Wrap(p.Build(0.02))
	if err := hg.Validate(); err != nil {
		t.Fatal(err)
	}
	_ = hg.Stats()
	_ = hg.EdgeSizeDist()
	_ = hg.NodeDegreeDist()
	_ = hg.Toplexes()
	_ = hg.HyperPageRank(0.85, 1e-8, 100)
	_ = hg.HyperCoreness()
	tr := hg.HyperTree(0)
	if !tr.Verify(hg.Hypergraph()) {
		t.Fatal("hypertree invalid")
	}
	eBC, nBC := hg.AdjoinBetweenness(true)
	if len(eBC) != hg.NumEdges() || len(nBC) != hg.NumNodes() {
		t.Fatal("adjoin BC lengths wrong")
	}
	lg := hg.SLineGraph(2, true)
	_ = lg.SBetweennessCentrality(true)
	_ = lg.SClosenessCentrality()
	_ = lg.SHarmonicClosenessCentrality()
	_ = lg.SEccentricity()
	_ = lg.SPageRank(0.85, 1e-8, 50)
	_ = lg.SCoreness()
	_ = lg.SMaximalIndependentSet(1)
	wl := hg.SLineGraphWeighted(2)
	_ = wl.SBetweennessCentralityWeighted(true)
	_ = wl.SClosenessCentralityWeighted()
	_ = wl.SEccentricityWeighted()
}
