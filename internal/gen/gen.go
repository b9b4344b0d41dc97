// Package gen generates synthetic hypergraphs standing in for the paper's
// evaluation datasets. The paper uses SNAP social networks materialized as
// community hypergraphs (each detected community = one hyperedge), KONECT
// bipartite networks, and a Hygra-generated uniform random hypergraph
// (Rand1). None of those downloads fit this environment, so this package
// provides three generator families reproducing their *shapes* — size
// ratios, mean degrees, and degree skew — plus named presets matching each
// Table I row at a configurable scale.
package gen

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"

	"nwhy/internal/core"
	"nwhy/internal/sparse"
)

// Uniform generates a Rand1-style hypergraph: ne hyperedges, each with
// exactly edgeSize hypernodes chosen uniformly at random from [0, nv)
// (without replacement within a hyperedge). Degree distributions are tightly
// concentrated — the "uniform degree distribution" input of Figures 7/8.
func Uniform(ne, nv, edgeSize int, seed int64) *core.Hypergraph {
	rng := rand.New(rand.NewSource(seed))
	if edgeSize > nv {
		edgeSize = nv
	}
	bel := sparse.NewBiEdgeList(ne, nv)
	bel.Edges = make([]sparse.Edge, 0, ne*edgeSize)
	scratch := make(map[uint32]bool, edgeSize)
	for e := 0; e < ne; e++ {
		clear(scratch)
		for len(scratch) < edgeSize {
			scratch[uint32(rng.Intn(nv))] = true
		}
		for v := range scratch {
			bel.Edges = append(bel.Edges, sparse.Edge{U: uint32(e), V: v})
		}
	}
	return core.FromBiEdgeList(bel)
}

// CommunityConfig parameterizes the planted-community generator.
type CommunityConfig struct {
	NumEdges int // number of hyperedges (communities)
	NumNodes int // number of hypernodes (members)
	// MeanEdgeSize is the target mean community size d̄e.
	MeanEdgeSize float64
	// SizeSkew is the Zipf exponent (> 1) of the community size
	// distribution; values near 1.5 give the heavy-tailed community sizes
	// of the SNAP-derived hypergraphs (large Δe).
	SizeSkew float64
	// MemberSkew in [0, 1) biases member selection toward low-ID nodes,
	// producing the skewed hypernode degree distribution (large Δv) of
	// social networks. 0 = uniform membership.
	MemberSkew float64
	Seed       int64
}

// Community generates a SNAP-style community hypergraph: hyperedge sizes
// follow a truncated Zipf distribution with the requested mean, and members
// are drawn with a power-law bias so a few hypernodes join many
// communities. The result has skewed degree distributions on both sides,
// like com-Orkut, Orkut-group, LiveJournal and Web in Table I.
func Community(cfg CommunityConfig) *core.Hypergraph {
	rng := rand.New(rand.NewSource(cfg.Seed))
	if cfg.SizeSkew <= 1 {
		cfg.SizeSkew = 1.5
	}
	maxSize := cfg.NumNodes
	if maxSize > 100000 {
		maxSize = 100000
	}
	sizes := zipfSizes(rng, cfg.NumEdges, cfg.MeanEdgeSize, cfg.SizeSkew, maxSize)
	bel := sparse.NewBiEdgeList(cfg.NumEdges, cfg.NumNodes)
	scratch := map[uint32]bool{}
	for e, size := range sizes {
		clear(scratch)
		for len(scratch) < size {
			scratch[pickMember(rng, cfg.NumNodes, cfg.MemberSkew)] = true
		}
		for v := range scratch {
			bel.Edges = append(bel.Edges, sparse.Edge{U: uint32(e), V: v})
		}
	}
	return core.FromBiEdgeList(bel)
}

// pickMember draws a hypernode. skew in (0, 1) biases selection toward low
// IDs by mapping a uniform draw through u^(1/(1-skew)): skew 0 is uniform,
// larger skews concentrate membership on a small hot set of hypernodes,
// producing the large Δv of the social-network hypergraphs.
func pickMember(rng *rand.Rand, nv int, skew float64) uint32 {
	if skew <= 0 {
		return uint32(rng.Intn(nv))
	}
	exp := 1 / (1 - skew)
	id := int(float64(nv) * math.Pow(rng.Float64(), exp))
	if id >= nv {
		id = nv - 1
	}
	return uint32(id)
}

// zipfSizes draws n sizes >= 1 from a truncated Zipf with the target mean:
// sizes are drawn with exponent skew, then rescaled toward the requested
// mean by adjusting the Zipf imax.
func zipfSizes(rng *rand.Rand, n int, mean, skew float64, maxSize int) []int {
	if mean < 1 {
		mean = 1
	}
	// Calibrate imax so the sample mean lands near the target: draw from
	// Zipf(s=skew, v=1, imax) and scale.
	imax := uint64(maxSize)
	z := rand.NewZipf(rng, skew, 1, imax)
	sizes := make([]int, n)
	var sum float64
	for i := range sizes {
		sizes[i] = int(z.Uint64()) + 1
		sum += float64(sizes[i])
	}
	// Rescale multiplicatively to hit the mean (keeping minimum 1).
	scale := mean / (sum / float64(n))
	for i := range sizes {
		s := int(float64(sizes[i]) * scale)
		if s < 1 {
			s = 1
		}
		if s > maxSize {
			s = maxSize
		}
		sizes[i] = s
	}
	return sizes
}

// BipartitePowerLaw generates a KONECT-style bipartite hypergraph with
// power-law degrees on both sides: m incidences are placed by sampling a
// hyperedge and a hypernode independently from Zipf marginals.
func BipartitePowerLaw(ne, nv, m int, skew float64, seed int64) *core.Hypergraph {
	rng := rand.New(rand.NewSource(seed))
	if skew <= 1 {
		skew = 1.8
	}
	ze := rand.NewZipf(rng, skew, 1, uint64(ne-1))
	zv := rand.NewZipf(rng, skew, 1, uint64(nv-1))
	bel := sparse.NewBiEdgeList(ne, nv)
	seen := make(map[sparse.Edge]bool, m)
	for len(bel.Edges) < m {
		e := sparse.Edge{U: uint32(ze.Uint64()), V: uint32(zv.Uint64())}
		if seen[e] {
			continue
		}
		seen[e] = true
		bel.Edges = append(bel.Edges, e)
	}
	return core.FromBiEdgeList(bel)
}

// ContainmentConfig parameterizes the containment-rich generator.
type ContainmentConfig struct {
	NumBase  int // number of base (intended-toplex) hyperedges
	NumNodes int // number of hypernodes
	// BaseSize is the size of each base hyperedge (members drawn without
	// replacement, with MemberSkew bias so bases overlap and stay connected).
	BaseSize int
	// SubsPerBase nested hyperedges are carved out of each base hyperedge as
	// random proper subsets — these are non-maximal by construction, so the
	// toplex fraction is roughly 1/(1+SubsPerBase).
	SubsPerBase int
	// MemberSkew in [0, 1) biases base membership toward low-ID hypernodes
	// (same knob as CommunityConfig), keeping the base edges s-overlapping.
	MemberSkew float64
	Seed       int64
}

// Containment generates a containment-rich hypergraph: NumBase large base
// hyperedges plus SubsPerBase proper subsets nested inside each. Most
// hyperedges are therefore non-maximal and covered by a base edge — the
// shape where toplex-pruned s-overlap construction shines, standing in for
// set-valued datasets (shopping baskets, tag sets) whose small records are
// usually contained in larger ones. Base edges come first (IDs
// [0, NumBase)), subsets after, so tests can tell the strata apart.
func Containment(cfg ContainmentConfig) *core.Hypergraph {
	rng := rand.New(rand.NewSource(cfg.Seed))
	if cfg.BaseSize < 2 {
		cfg.BaseSize = 2
	}
	if cfg.BaseSize > cfg.NumNodes {
		cfg.BaseSize = cfg.NumNodes
	}
	ne := cfg.NumBase * (1 + cfg.SubsPerBase)
	bel := sparse.NewBiEdgeList(ne, cfg.NumNodes)
	bases := make([][]uint32, cfg.NumBase)
	scratch := make(map[uint32]bool, cfg.BaseSize)
	for b := 0; b < cfg.NumBase; b++ {
		clear(scratch)
		for len(scratch) < cfg.BaseSize {
			scratch[pickMember(rng, cfg.NumNodes, cfg.MemberSkew)] = true
		}
		members := make([]uint32, 0, cfg.BaseSize)
		for v := range scratch {
			members = append(members, v)
		}
		slices.Sort(members) // map order must not reach the shuffles below
		bases[b] = members
		for _, v := range members {
			bel.Edges = append(bel.Edges, sparse.Edge{U: uint32(b), V: v})
		}
	}
	e := uint32(cfg.NumBase)
	for b := 0; b < cfg.NumBase; b++ {
		members := bases[b]
		for k := 0; k < cfg.SubsPerBase; k++ {
			// Proper subset: size in [1, |base|-1], first `size` of a shuffle.
			size := 1 + rng.Intn(len(members)-1)
			rng.Shuffle(len(members), func(i, j int) {
				members[i], members[j] = members[j], members[i]
			})
			for _, v := range members[:size] {
				bel.Edges = append(bel.Edges, sparse.Edge{U: e, V: v})
			}
			e++
		}
	}
	return core.FromBiEdgeList(bel)
}

// RMAT generates a hypergraph whose incidence matrix is drawn from the
// R-MAT (recursive matrix) distribution used by Graph500-style workload
// generators: each of m incidences picks its (hyperedge, hypernode) cell by
// descending a 2x2 quadrant tree with probabilities (a, b, c, d). Skew
// grows with a; a=b=c=d=0.25 is uniform. Dimensions round up to powers of
// two internally and are truncated back. Duplicates are dropped.
func RMAT(ne, nv, m int, a, b, c float64, seed int64) *core.Hypergraph {
	rng := rand.New(rand.NewSource(seed))
	d := 1 - a - b - c
	if d < 0 {
		d = 0
	}
	logR := ceilLog2(ne)
	logC := ceilLog2(nv)
	bel := sparse.NewBiEdgeList(ne, nv)
	seen := map[sparse.Edge]bool{}
	attempts := 0
	for len(bel.Edges) < m && attempts < 20*m {
		attempts++
		row, col := 0, 0
		levels := logR
		if logC > levels {
			levels = logC
		}
		for bit := levels - 1; bit >= 0; bit-- {
			u := rng.Float64()
			var right, down bool
			switch {
			case u < a:
			case u < a+b:
				right = true
			case u < a+b+c:
				down = true
			default:
				right = true
				down = true
			}
			if right && bit < logC {
				col |= 1 << bit
			}
			if down && bit < logR {
				row |= 1 << bit
			}
		}
		if row >= ne || col >= nv {
			continue
		}
		e := sparse.Edge{U: uint32(row), V: uint32(col)}
		if seen[e] {
			continue
		}
		seen[e] = true
		bel.Edges = append(bel.Edges, e)
	}
	return core.FromBiEdgeList(bel)
}

func ceilLog2(n int) int {
	l := 0
	for (1 << l) < n {
		l++
	}
	return l
}

// Preset names one Table I dataset shape.
type Preset struct {
	Name string
	// Paper characteristics this preset mimics (for documentation).
	PaperV, PaperE string
	// Build generates the hypergraph at the given scale (scale 1 ≈ 10-50k
	// entities; scale s multiplies entity counts by s).
	Build func(scale float64) *core.Hypergraph
}

// Presets returns the six Table I dataset stand-ins in paper order.
func Presets() []Preset {
	return []Preset{
		{
			Name: "com-orkut-mini", PaperV: "2.3M", PaperE: "15.3M",
			// d̄v=46, d̄e=7, many more hyperedges than nodes, skewed.
			Build: func(s float64) *core.Hypergraph {
				nv := scaleInt(4000, s)
				ne := scaleInt(26000, s)
				return Community(CommunityConfig{
					NumEdges: ne, NumNodes: nv, MeanEdgeSize: 7,
					SizeSkew: 1.6, MemberSkew: 0.5, Seed: 101,
				})
			},
		},
		{
			Name: "friendster-mini", PaperV: "7.9M", PaperE: "1.6M",
			// d̄v=3, d̄e=14: few large communities over many nodes.
			Build: func(s float64) *core.Hypergraph {
				nv := scaleInt(30000, s)
				ne := scaleInt(6000, s)
				return Community(CommunityConfig{
					NumEdges: ne, NumNodes: nv, MeanEdgeSize: 14,
					SizeSkew: 1.6, MemberSkew: 0.4, Seed: 102,
				})
			},
		},
		{
			Name: "orkut-group-mini", PaperV: "2.8M", PaperE: "8.7M",
			// d̄v=118, d̄e=37: very dense, extremely skewed (Δe=318k).
			Build: func(s float64) *core.Hypergraph {
				nv := scaleInt(3000, s)
				ne := scaleInt(9500, s)
				return Community(CommunityConfig{
					NumEdges: ne, NumNodes: nv, MeanEdgeSize: 37,
					SizeSkew: 1.35, MemberSkew: 0.6, Seed: 103,
				})
			},
		},
		{
			Name: "livejournal-mini", PaperV: "3.2M", PaperE: "7.5M",
			// d̄v=35, d̄e=15, huge Δe (1.1M in the paper).
			Build: func(s float64) *core.Hypergraph {
				nv := scaleInt(6500, s)
				ne := scaleInt(15000, s)
				return Community(CommunityConfig{
					NumEdges: ne, NumNodes: nv, MeanEdgeSize: 15,
					SizeSkew: 1.4, MemberSkew: 0.55, Seed: 104,
				})
			},
		},
		{
			Name: "web-mini", PaperV: "27.7M", PaperE: "12.8M",
			// d̄v=5, d̄e=11: sparse, more nodes than edges, power-law both
			// sides (KONECT bipartite).
			Build: func(s float64) *core.Hypergraph {
				nv := scaleInt(44000, s)
				ne := scaleInt(20000, s)
				return BipartitePowerLaw(ne, nv, scaleInt(220000, s), 1.7, 105)
			},
		},
		{
			Name: "containment-mini", PaperV: "-", PaperE: "-",
			// Not a Table I row: a containment-rich shape (most hyperedges
			// nested inside a base toplex) for exercising toplex pruning.
			Build: func(s float64) *core.Hypergraph {
				return Containment(ContainmentConfig{
					NumBase:  scaleInt(1200, s),
					NumNodes: scaleInt(8000, s),
					BaseSize: 24, SubsPerBase: 7,
					MemberSkew: 0.45, Seed: 107,
				})
			},
		},
		{
			Name: "rand1-mini", PaperV: "100M", PaperE: "100M",
			// d̄v=d̄e=10, uniform: one giant component, no skew.
			Build: func(s float64) *core.Hypergraph {
				n := scaleInt(40000, s)
				return Uniform(n, n, 10, 106)
			},
		},
	}
}

// ByName returns the preset with the given name.
func ByName(name string) (Preset, error) {
	for _, p := range Presets() {
		if p.Name == name {
			return p, nil
		}
	}
	var names []string
	for _, p := range Presets() {
		names = append(names, p.Name)
	}
	sort.Strings(names)
	return Preset{}, fmt.Errorf("gen: unknown preset %q (have %v)", name, names)
}

func scaleInt(base int, scale float64) int {
	n := int(float64(base) * scale)
	if n < 1 {
		n = 1
	}
	return n
}
