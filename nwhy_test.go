package nwhy

import (
	"path/filepath"
	"reflect"
	"slices"
	"testing"

	"nwhy/internal/gen"
	"nwhy/internal/slinegraph"
)

// TestListing5Workflow reproduces the paper's Listing 5 Python session:
// a hypergraph with two hyperedges {0,1,2} and {0,1,2} (columns 0 and 1),
// its 2-line graph, and every s-metric query.
func TestListing5Workflow(t *testing.T) {
	col := []uint32{0, 0, 0, 1, 1, 1} // hyperedge IDs
	row := []uint32{0, 1, 2, 0, 1, 2} // hypernode IDs
	weight := []float64{1, 1, 1, 1, 1, 1}
	hg, err := New(col, row, weight) // hg = nwhy.NWHypergraph(row, col, weight)
	if err != nil {
		t.Fatal(err)
	}
	s2lg := hg.SLineGraph(2, true) // s2lg = hg.s_linegraph(s=2, edges=True)
	if !s2lg.IsSConnected() {      // s2lg.is_s_connected()
		t.Fatal("two triples sharing 3 nodes must be 2-connected")
	}
	if sn := s2lg.SNeighbors(0); !reflect.DeepEqual(sn, []uint32{1}) { // s_neighbors(v=0)
		t.Fatalf("s-neighbors = %v", sn)
	}
	if sd := s2lg.SDegree(0); sd != 1 { // s_degree(v=0)
		t.Fatalf("s-degree = %d", sd)
	}
	scc := s2lg.SConnectedComponents() // s_connected_components()
	if scc[0] != scc[1] {
		t.Fatalf("components = %v", scc)
	}
	if sdist := s2lg.SDistance(0, 1); sdist != 1 { // s_distance(src=0, dest=1)
		t.Fatalf("s-distance = %d", sdist)
	}
	if sp := s2lg.SPath(0, 1); !reflect.DeepEqual(sp, []uint32{0, 1}) { // s_path(...)
		t.Fatalf("s-path = %v", sp)
	}
	sbc := s2lg.SBetweennessCentrality(true) // s_betweenness_centrality(normalized=True)
	if len(sbc) != 2 {
		t.Fatalf("sbc = %v", sbc)
	}
	sc := s2lg.SClosenessCentrality() // s_closeness_centrality()
	if sc[0] != 1 || sc[1] != 1 {
		t.Fatalf("closeness = %v", sc)
	}
	shc := s2lg.SHarmonicClosenessCentrality() // s_harmonic_closeness_centrality()
	if shc[0] != 1 {
		t.Fatalf("harmonic = %v", shc)
	}
	se := s2lg.SEccentricity() // s_eccentricity()
	if se[0] != 1 || se[1] != 1 {
		t.Fatalf("eccentricity = %v", se)
	}
}

func paperExample() *NWHypergraph {
	return FromSets([][]uint32{
		{0, 1, 2},
		{2, 3, 4},
		{4, 5, 6},
		{0, 6, 7, 8},
	}, 9)
}

func TestNewValidatesLengths(t *testing.T) {
	if _, err := New([]uint32{0}, []uint32{0, 1}, nil); err == nil {
		t.Fatal("length mismatch accepted")
	}
	if _, err := New([]uint32{0}, []uint32{0}, []float64{1, 2}); err == nil {
		t.Fatal("weight mismatch accepted")
	}
}

func TestNewDedupsIncidences(t *testing.T) {
	hg, err := New([]uint32{0, 0}, []uint32{1, 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if hg.NumIncidences() != 1 {
		t.Fatalf("incidences = %d", hg.NumIncidences())
	}
}

func TestBasicAccessors(t *testing.T) {
	hg := paperExample()
	if hg.NumEdges() != 4 || hg.NumNodes() != 9 || hg.NumIncidences() != 13 {
		t.Fatal("shape wrong")
	}
	if hg.EdgeDegree(3) != 4 || hg.NodeDegree(0) != 2 {
		t.Fatal("degrees wrong")
	}
	if !reflect.DeepEqual(hg.Incidence(0), []uint32{0, 1, 2}) {
		t.Fatal("Incidence wrong")
	}
	if !reflect.DeepEqual(hg.Memberships(4), []uint32{1, 2}) {
		t.Fatal("Memberships wrong")
	}
	if err := hg.Validate(); err != nil {
		t.Fatal(err)
	}
	st := hg.Stats()
	if st.MaxEdgeDegree != 4 {
		t.Fatalf("stats %+v", st)
	}
	if hg.Dual().NumEdges() != 9 {
		t.Fatal("dual wrong")
	}
}

func TestAllBFSVariantsAgree(t *testing.T) {
	hg := paperExample()
	want := hg.BFS(0, BFSTopDown)
	for _, v := range []BFSVariant{BFSBottomUp, BFSAdjoin, BFSHygraBaseline} {
		got := hg.BFS(0, v)
		if !reflect.DeepEqual(got.EdgeLevel, want.EdgeLevel) || !reflect.DeepEqual(got.NodeLevel, want.NodeLevel) {
			t.Fatalf("variant %d disagrees", v)
		}
	}
}

func TestAllCCVariantsAgree(t *testing.T) {
	hg := FromSets([][]uint32{{0, 1}, {1, 2}, {4, 5}}, 6)
	want := hg.ConnectedComponents(CCHyper)
	for _, v := range []CCVariant{CCAdjoinAfforest, CCAdjoinLabelProp, CCHygraBaseline} {
		got := hg.ConnectedComponents(v)
		if !reflect.DeepEqual(got.EdgeComp, want.EdgeComp) || !reflect.DeepEqual(got.NodeComp, want.NodeComp) {
			t.Fatalf("variant %d disagrees", v)
		}
	}
	if want.NumComponents() != 3 {
		t.Fatalf("components = %d, want 3 (two edge groups + isolated node 3)", want.NumComponents())
	}
}

// TestAllConstructionAlgorithmsAgree is the one-route table: each of the
// paper's four presets, on the bipartite and the adjoin input, for s in 0..4
// at 1, 2 and 3 workers, yields a line-graph CSR identical entry for entry to
// the zero-options route's and pairs equal to the naive all-pairs oracle —
// the presets differ in the Strategy they pin and in nothing the result
// shows.
func TestAllConstructionAlgorithmsAgree(t *testing.T) {
	h := gen.Community(gen.CommunityConfig{NumEdges: 90, NumNodes: 40, MeanEdgeSize: 4, SizeSkew: 1.6, MemberSkew: 0.5, Seed: 20})
	presets := map[string]ConstructOptions{
		"Hashmap": PresetHashmap, "Intersection": PresetIntersection,
		"Algorithm1": PresetAlgorithm1, "Algorithm2": PresetAlgorithm2,
	}
	for workers := 1; workers <= 3; workers++ {
		eng := NewEngine(workers)
		defer eng.Close()
		g := Wrap(h).WithEngine(eng)
		for s := 0; s <= 4; s++ {
			// The kernel only ever meets hyperedges that share a hypernode,
			// so its s = 0 is the oracle's s = 1 (whose s = 0 is every pair).
			oracle, err := slinegraph.Naive(eng, h, max(s, 1))
			if err != nil {
				t.Fatal(err)
			}
			if len(oracle) == 0 {
				t.Fatalf("s=%d: empty oracle, the table would compare nothing", s)
			}
			zero := g.SLineGraph(s, true)
			if !slices.Equal(zero.Pairs(), oracle) {
				t.Fatalf("workers=%d s=%d: zero options differ from the oracle", workers, s)
			}
			for name, o := range presets {
				for _, o.UseAdjoin = range []bool{false, true} {
					got := g.SLineGraphWith(s, true, o)
					if !got.G.CSR().Equal(zero.G.CSR()) {
						t.Fatalf("workers=%d s=%d %s %+v: CSR differs from the zero-options route", workers, s, name, o)
					}
					if !slices.Equal(got.Pairs(), oracle) {
						t.Fatalf("workers=%d s=%d %s %+v: pairs differ from the oracle", workers, s, name, o)
					}
				}
			}
		}
	}
}

// TestPaperPresetsSameBytesAsZeroOptions: on every internal/gen preset at
// test scale, SLineGraphWith under each of the paper's four presets gives
// the RowPtr, Col and Val of the zero options, element for element.
func TestPaperPresetsSameBytesAsZeroOptions(t *testing.T) {
	presets := map[string]ConstructOptions{
		"Hashmap": PresetHashmap, "Intersection": PresetIntersection,
		"Algorithm1": PresetAlgorithm1, "Algorithm2": PresetAlgorithm2,
	}
	for _, p := range gen.Presets() {
		g := Wrap(p.Build(0.01))
		for s := 1; s <= 3; s++ {
			want := g.SLineGraphWith(s, true, ConstructOptions{}).G.CSR()
			for name, o := range presets {
				got := g.SLineGraphWith(s, true, o).G.CSR()
				if !slices.Equal(got.RowPtr, want.RowPtr) || !slices.Equal(got.Col, want.Col) || !slices.Equal(got.Val, want.Val) {
					t.Fatalf("%s s=%d %s: CSR differs from the zero options'", p.Name, s, name)
				}
			}
		}
	}
}

func TestSCliqueGraphViaEdgesFalse(t *testing.T) {
	hg := paperExample()
	lg := hg.SLineGraph(1, false) // 1-clique graph over hypernodes
	if lg.NumVertices() != 9 {
		t.Fatalf("clique-side line graph vertices = %d", lg.NumVertices())
	}
	// Node 0 is adjacent (shares an edge) with 1,2,6,7,8.
	if !reflect.DeepEqual(lg.SNeighbors(0), []uint32{1, 2, 6, 7, 8}) {
		t.Fatalf("neighbors = %v", lg.SNeighbors(0))
	}
}

func TestCliqueExpansionMatchesDualLineGraph(t *testing.T) {
	hg := paperExample()
	ce := hg.CliqueExpansion()
	lg := hg.SLineGraph(1, false)
	if len(ce) != lg.NumEdges() {
		t.Fatalf("clique expansion %d edges vs dual 1-line %d", len(ce), lg.NumEdges())
	}
}

func TestEnsembleFacade(t *testing.T) {
	hg := FromSets([][]uint32{{0, 1, 2, 3}, {1, 2, 3, 4}, {2, 3, 4, 5}}, 6)
	byS := hg.SLineGraphEnsemble([]int{1, 2, 3}, true)
	for s, lg := range byS {
		want := hg.SLineGraph(s, true)
		if !reflect.DeepEqual(lg.Pairs(), want.Pairs()) {
			t.Fatalf("ensemble s=%d differs", s)
		}
	}
}

func TestToplexesFacade(t *testing.T) {
	hg := FromSets([][]uint32{{0, 1, 2}, {0, 1}, {3}}, 4)
	if got := hg.Toplexes(); !reflect.DeepEqual(got, []uint32{0, 2}) {
		t.Fatalf("toplexes = %v", got)
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	hg := paperExample()
	path := filepath.Join(t.TempDir(), "paper.mtx")
	if err := hg.Save(path); err != nil {
		t.Fatal(err)
	}
	back, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if back.NumEdges() != 4 || back.NumIncidences() != 13 {
		t.Fatal("round trip changed shape")
	}
	if !reflect.DeepEqual(back.Incidence(3), hg.Incidence(3)) {
		t.Fatal("round trip changed contents")
	}
}

func TestSetNumThreads(t *testing.T) {
	SetNumThreads(2)
	if NumThreads() != 2 {
		t.Fatalf("NumThreads = %d", NumThreads())
	}
	hg := paperExample()
	r := hg.BFS(0, BFSTopDown)
	if r.ReachedEdges() != 4 {
		t.Fatal("BFS broken at 2 threads")
	}
	SetNumThreads(0) // reset to GOMAXPROCS
	if NumThreads() < 1 {
		t.Fatal("reset failed")
	}
}

func TestAdjoinCached(t *testing.T) {
	hg := paperExample()
	a1 := hg.Adjoin()
	a2 := hg.Adjoin()
	if a1 != a2 {
		t.Fatal("Adjoin should be cached")
	}
	if a1.NumVertices() != 13 {
		t.Fatal("adjoin shape wrong")
	}
}
