package core_test

import (
	"slices"
	"testing"

	"nwhy/internal/core"
	"nwhy/internal/gen"
	"nwhy/internal/parallel"
)

// serveShapes are the two inputs the serve workloads of bench/ load into
// the daemon (before their relabelling), the ones /toplexes is paid on.
var serveShapes = []gen.Preset{
	{Name: "serve-community", Build: func(float64) *core.Hypergraph {
		return gen.Community(gen.CommunityConfig{
			NumEdges: 6500, NumNodes: 1000, MeanEdgeSize: 7, SizeSkew: 1.6, MemberSkew: 0.5, Seed: 20220530,
		})
	}},
	{Name: "serve-containment", Build: func(float64) *core.Hypergraph {
		return gen.Containment(gen.ContainmentConfig{
			NumBase: 1200, NumNodes: 8000, BaseSize: 24, SubsPerBase: 7, MemberSkew: 0.45, Seed: 20220530,
		})
	}},
}

// tallyToplexCover is the counting superset test ToplexCover ran before the
// pivot scan, kept serial as the oracle that pins tops and cover bit for
// bit: any f containing e appears exactly |e| times among the incidence
// lists of e's members, so tallying those lists finds every superset, and
// the minimum-ID qualifying one is the witness.
func tallyToplexCover(h *core.Hypergraph) (tops, cover []uint32) {
	ne := h.NumEdges()
	cover = make([]uint32, ne)
	cnt := map[uint32]int{}
	for e := range cover {
		cover[e] = tallyCoverOf(h, uint32(e), cnt)
		if cover[e] == uint32(e) {
			tops = append(tops, uint32(e))
		}
	}
	return tops, cover
}

func tallyCoverOf(h *core.Hypergraph, e uint32, cnt map[uint32]int) uint32 {
	clear(cnt)
	size := h.EdgeDegree(int(e))
	if size == 0 {
		for f := 0; f < h.NumEdges(); f++ {
			if f != int(e) && (h.EdgeDegree(f) > 0 || f < int(e)) {
				return uint32(f)
			}
		}
		return e
	}
	for _, v := range h.EdgeIncidence(int(e)) {
		for _, f := range h.NodeIncidence(int(v)) {
			if f != e {
				cnt[f]++
			}
		}
	}
	best := e
	for f, c := range cnt {
		if c != size {
			continue // f does not contain all of e
		}
		df := h.EdgeDegree(int(f))
		if df > size || (df == size && f < e) {
			if best == e || f < best {
				best = f
			}
		}
	}
	return best
}

// TestToplexCoverMatchesTallyOnPresets pins tops and cover of every
// internal/gen preset and both serve shapes, at one, two and three workers,
// to what the tally routine this package shipped before produces. The
// expectation is recomputed in process and compared whole, not stored as a
// digest.
func TestToplexCoverMatchesTallyOnPresets(t *testing.T) {
	var engs []*parallel.Engine
	for workers := 1; workers <= 3; workers++ {
		eng := parallel.NewEngine(workers)
		defer eng.Close()
		engs = append(engs, eng)
	}
	for _, p := range append(gen.Presets(), serveShapes...) {
		h := p.Build(0.1)
		wantTops, wantCover := tallyToplexCover(h)
		for _, eng := range engs {
			tops, cover := core.ToplexCover(eng, h)
			if !slices.Equal(tops, wantTops) || !slices.Equal(cover, wantCover) {
				t.Errorf("%s at %d workers: %d toplexes, the tally routine gives %d; or a witness differs",
					p.Name, eng.NumWorkers(), len(tops), len(wantTops))
			}
		}
		t.Logf("%s: %d hyperedges, %d toplexes", p.Name, h.NumEdges(), len(wantTops))
	}
}

var toplexSink int

// BenchmarkToplexCover times the cover from cold on the two serve shapes
// and on a power-law input whose hub hypernodes make the choice of pivot
// matter.
func BenchmarkToplexCover(b *testing.B) {
	inputs := slices.Concat(serveShapes, []gen.Preset{{
		Name:  "power-law",
		Build: func(float64) *core.Hypergraph { return gen.BipartitePowerLaw(10000, 8000, 40000, 1.6, 7) },
	}})
	eng := parallel.SharedEngine()
	for _, in := range inputs {
		h := in.Build(1)
		b.Run(in.Name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				tops, _ := core.ToplexCover(eng, h)
				toplexSink += len(tops)
			}
		})
	}
}
