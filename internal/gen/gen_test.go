package gen

import (
	"encoding/binary"
	"hash/fnv"
	"testing"

	"nwhy/internal/core"
	"nwhy/internal/parallel"
)

func TestUniformShape(t *testing.T) {
	h := Uniform(100, 200, 5, 1)
	if h.NumEdges() != 100 || h.NumNodes() != 200 {
		t.Fatalf("shape %d/%d", h.NumEdges(), h.NumNodes())
	}
	if err := h.Validate(parallel.SharedEngine()); err != nil {
		t.Fatal(err)
	}
	for e := 0; e < 100; e++ {
		if h.EdgeDegree(e) != 5 {
			t.Fatalf("edge %d degree %d, want exactly 5", e, h.EdgeDegree(e))
		}
	}
}

func TestUniformDeterministic(t *testing.T) {
	a := Uniform(50, 80, 4, 7)
	b := Uniform(50, 80, 4, 7)
	if !a.Edges.Equal(b.Edges) {
		t.Fatal("same seed produced different hypergraphs")
	}
	c := Uniform(50, 80, 4, 8)
	if a.Edges.Equal(c.Edges) {
		t.Fatal("different seeds produced identical hypergraphs")
	}
}

func TestUniformEdgeSizeClamped(t *testing.T) {
	h := Uniform(3, 4, 100, 1)
	for e := 0; e < 3; e++ {
		if h.EdgeDegree(e) != 4 {
			t.Fatalf("degree %d, want clamped 4", h.EdgeDegree(e))
		}
	}
}

func TestUniformLowSkew(t *testing.T) {
	// Uniform membership: max node degree should be within a small factor
	// of the mean (binomial concentration), unlike the community generator.
	h := Uniform(2000, 2000, 10, 3)
	s := core.ComputeStats(h)
	if s.AvgNodeDegree < 9 || s.AvgNodeDegree > 11 {
		t.Fatalf("avg node degree %v, want ~10", s.AvgNodeDegree)
	}
	if float64(s.MaxNodeDegree) > 6*s.AvgNodeDegree {
		t.Fatalf("uniform hypergraph too skewed: max %d vs avg %v", s.MaxNodeDegree, s.AvgNodeDegree)
	}
}

func TestCommunitySkewedDegrees(t *testing.T) {
	h := Community(CommunityConfig{
		NumEdges: 3000, NumNodes: 2000, MeanEdgeSize: 10,
		SizeSkew: 1.5, MemberSkew: 0.5, Seed: 9,
	})
	if err := h.Validate(parallel.SharedEngine()); err != nil {
		t.Fatal(err)
	}
	s := core.ComputeStats(h)
	// Heavy-tailed: the max degrees must be far above the means.
	if float64(s.MaxEdgeDegree) < 4*s.AvgEdgeDegree {
		t.Fatalf("edge sizes not skewed: max %d avg %v", s.MaxEdgeDegree, s.AvgEdgeDegree)
	}
	if float64(s.MaxNodeDegree) < 4*s.AvgNodeDegree {
		t.Fatalf("node degrees not skewed: max %d avg %v", s.MaxNodeDegree, s.AvgNodeDegree)
	}
}

func TestCommunityMeanEdgeSizeNearTarget(t *testing.T) {
	h := Community(CommunityConfig{
		NumEdges: 5000, NumNodes: 5000, MeanEdgeSize: 12,
		SizeSkew: 1.5, MemberSkew: 0.3, Seed: 4,
	})
	s := core.ComputeStats(h)
	if s.AvgEdgeDegree < 6 || s.AvgEdgeDegree > 24 {
		t.Fatalf("avg edge degree %v, want within 2x of 12", s.AvgEdgeDegree)
	}
}

func TestBipartitePowerLaw(t *testing.T) {
	h := BipartitePowerLaw(2000, 4000, 20000, 1.7, 5)
	if err := h.Validate(parallel.SharedEngine()); err != nil {
		t.Fatal(err)
	}
	if h.NumIncidences() != 20000 {
		t.Fatalf("incidences = %d", h.NumIncidences())
	}
	s := core.ComputeStats(h)
	if float64(s.MaxEdgeDegree) < 5*s.AvgEdgeDegree {
		t.Fatalf("power-law edges not skewed: max %d avg %v", s.MaxEdgeDegree, s.AvgEdgeDegree)
	}
}

func TestPresetsAllBuildAndValidate(t *testing.T) {
	for _, p := range Presets() {
		h := p.Build(0.05) // tiny scale for test speed
		if err := h.Validate(parallel.SharedEngine()); err != nil {
			t.Errorf("%s: %v", p.Name, err)
		}
		if h.NumEdges() == 0 || h.NumNodes() == 0 {
			t.Errorf("%s: empty hypergraph", p.Name)
		}
	}
}

func TestPresetShapesMatchTableI(t *testing.T) {
	// The defining ratios of Table I must survive the scale-down:
	// com-orkut has |E| >> |V|; friendster has |V| >> |E|; rand1 is square.
	build := func(name string) core.Stats {
		p, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		return core.ComputeStats(p.Build(0.2))
	}
	co := build("com-orkut-mini")
	if co.NumEdges < 3*co.NumNodes {
		t.Errorf("com-orkut should have many more hyperedges than nodes: %+v", co)
	}
	fr := build("friendster-mini")
	if fr.NumNodes < 3*fr.NumEdges {
		t.Errorf("friendster should have many more nodes than hyperedges: %+v", fr)
	}
	r1 := build("rand1-mini")
	if r1.NumNodes != r1.NumEdges {
		t.Errorf("rand1 should be square: %+v", r1)
	}
	if float64(r1.MaxEdgeDegree) > 2*r1.AvgEdgeDegree {
		t.Errorf("rand1 should be uniform: %+v", r1)
	}
	og := build("orkut-group-mini")
	if og.AvgEdgeDegree < 15 {
		t.Errorf("orkut-group should be dense (d̄e=37 in the paper): %+v", og)
	}
}

func TestRMATShape(t *testing.T) {
	h := RMAT(1000, 2000, 8000, 0.55, 0.15, 0.15, 7)
	if err := h.Validate(parallel.SharedEngine()); err != nil {
		t.Fatal(err)
	}
	if h.NumEdges() != 1000 || h.NumNodes() != 2000 {
		t.Fatalf("shape %d/%d", h.NumEdges(), h.NumNodes())
	}
	if h.NumIncidences() < 7000 {
		t.Fatalf("incidences = %d, want near 8000", h.NumIncidences())
	}
}

func TestRMATSkewGrowsWithA(t *testing.T) {
	uniform := core.ComputeStats(RMAT(2000, 2000, 16000, 0.25, 0.25, 0.25, 3))
	skewed := core.ComputeStats(RMAT(2000, 2000, 16000, 0.6, 0.15, 0.15, 3))
	if skewed.MaxEdgeDegree <= uniform.MaxEdgeDegree {
		t.Fatalf("RMAT skew did not grow: max %d (a=0.6) vs %d (uniform)",
			skewed.MaxEdgeDegree, uniform.MaxEdgeDegree)
	}
}

func TestRMATDeterministic(t *testing.T) {
	a := RMAT(500, 500, 3000, 0.5, 0.2, 0.2, 11)
	b := RMAT(500, 500, 3000, 0.5, 0.2, 0.2, 11)
	if !a.Edges.Equal(b.Edges) {
		t.Fatal("RMAT not deterministic")
	}
}

func TestRMATNonPowerOfTwoDims(t *testing.T) {
	h := RMAT(100, 77, 500, 0.4, 0.2, 0.2, 5)
	if err := h.Validate(parallel.SharedEngine()); err != nil {
		t.Fatal(err)
	}
	if h.NumEdges() != 100 || h.NumNodes() != 77 {
		t.Fatalf("shape %d/%d", h.NumEdges(), h.NumNodes())
	}
}

func TestByNameUnknown(t *testing.T) {
	if _, err := ByName("nope"); err == nil {
		t.Fatal("unknown preset accepted")
	}
}

func TestPresetsDeterministic(t *testing.T) {
	p, _ := ByName("livejournal-mini")
	a := p.Build(0.1)
	b := p.Build(0.1)
	if !a.Edges.Equal(b.Edges) {
		t.Fatal("preset not deterministic")
	}
}

// TestPresetsGoldenDigests pins every preset's incidence CSR across
// processes: a generator that lets map iteration order (or anything else a
// process does not repeat) reach its output passes the in-process
// determinism tests above and still hands two binaries two inputs. The
// constants are the FNV-1a digests of Edges.RowPtr and Edges.Col at scale
// 0.05; a deliberate generator change re-records them.
func TestPresetsGoldenDigests(t *testing.T) {
	golden := map[string]uint64{
		"com-orkut-mini":   0xc56e968d1977de4f,
		"friendster-mini":  0xa37cbd59b22d2d63,
		"orkut-group-mini": 0x31245a463f6ce962,
		"livejournal-mini": 0xf0b6673db5d73df7,
		"web-mini":         0xd2e9017ce079bad3,
		"containment-mini": 0xdd544c1f301deb5c,
		"rand1-mini":       0xc9df1013a8a5ac5,
	}
	for _, p := range Presets() {
		h := p.Build(0.05)
		d := fnv.New64a()
		binary.Write(d, binary.LittleEndian, h.Edges.RowPtr)
		binary.Write(d, binary.LittleEndian, h.Edges.Col)
		want, ok := golden[p.Name]
		if !ok {
			t.Errorf("%s: no golden digest; this build gives %#x", p.Name, d.Sum64())
		} else if got := d.Sum64(); got != want {
			t.Errorf("%s: incidence digest %#x, want %#x", p.Name, got, want)
		}
	}
}
