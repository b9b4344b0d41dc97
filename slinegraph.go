package nwhy

import (
	"context"

	"nwhy/internal/slinegraph"
	"nwhy/internal/smetrics"
	"nwhy/internal/sparse"
)

// Algorithm selects an s-line-graph construction algorithm.
type Algorithm int

const (
	// AlgoHashmap is the hashmap-counting algorithm (IPDPS'22), the paper's
	// best-performing non-queue construction and the default.
	AlgoHashmap Algorithm = iota
	// AlgoIntersection is the set-intersection heuristic (HiPC'21).
	AlgoIntersection
	// AlgoNaive is the all-pairs baseline.
	AlgoNaive
	// AlgoQueueHashmap is the paper's Algorithm 1: single-phase queue-based
	// hashmap counting. Works on any hyperedge ID space.
	AlgoQueueHashmap
	// AlgoQueueIntersection is the paper's Algorithm 2: two-phase
	// queue-based set intersection. Works on any hyperedge ID space.
	AlgoQueueIntersection
)

func (a Algorithm) String() string {
	switch a {
	case AlgoIntersection:
		return "intersection"
	case AlgoNaive:
		return "naive"
	case AlgoQueueHashmap:
		return "queue-hashmap (Alg 1)"
	case AlgoQueueIntersection:
		return "queue-intersection (Alg 2)"
	default:
		return "hashmap"
	}
}

// Strategy selects the unified kernel's overlap-counting strategy — the
// counter axis of the s-overlap construction kernel. It applies to the
// default (kernel) construction path and to the weighted variants; the
// legacy Algorithm values pin it instead.
type Strategy int

const (
	// StrategyAuto picks dense or hashmap from the size of the ID space.
	StrategyAuto Strategy = iota
	// StrategyHashmap tallies overlaps in per-worker hash maps.
	StrategyHashmap
	// StrategyDense tallies overlaps in per-worker dense stamp/counter
	// arrays indexed by hyperedge ID.
	StrategyDense
	// StrategyIntersection sorted-merge intersects candidate incidence
	// lists, short-circuiting at s.
	StrategyIntersection
)

func (s Strategy) String() string { return slinegraph.Counter(s).String() }

// Schedule selects how hyperedges are distributed over workers — the
// schedule axis of the s-overlap construction kernel.
type Schedule int

const (
	// ScheduleDefault derives blocked or cyclic from the Cyclic option.
	ScheduleDefault Schedule = iota
	// ScheduleBlocked assigns contiguous chunks.
	ScheduleBlocked
	// ScheduleCyclic assigns hyperedges round-robin with a stride.
	ScheduleCyclic
	// ScheduleQueue is the paper's dynamic work queue.
	ScheduleQueue
	// ScheduleAuto picks a schedule from the relabel order and degree skew.
	ScheduleAuto
)

func (s Schedule) String() string { return slinegraph.Schedule(s).String() }

// Prune selects the intent-aware pruning heuristics — the fourth kernel
// axis (the companion paper's algorithmic cuts). The heuristics compose in
// order; levels that drop pairs (connectivity, toplex) only ever apply to
// connectivity-intent runs (SConnectedComponents[Ctx], IncrementalSCC) and
// silently degrade to the result-identical degree prefilter everywhere else.
type Prune int

const (
	// PruneAuto resolves from the query intent: the degree prefilter for
	// pair-list constructions, the connectivity arsenal for component
	// queries (upgrading to the toplex-only path when the handle's toplex
	// cache is already warm).
	PruneAuto Prune = iota
	// PruneNone disables every heuristic — the benchmark baseline.
	PruneNone
	// PruneDegree prefilters the work list to hyperedges with deg ≥ s once
	// up front (engine-parallel bitset + filtered span).
	PruneDegree
	// PruneConnectivity adds the union-find connected short-circuit:
	// candidate pairs already in one s-component skip counting.
	PruneConnectivity
	// PruneToplex additionally restricts construction to the maximal
	// hyperedges, expanding labels through the containment map; forcing it
	// computes (and caches) the toplex cover if cold.
	PruneToplex
)

func (p Prune) String() string { return slinegraph.Prune(p).String() }

// ConstructOptions configure s-line-graph construction. The one options
// struct covers every variant — unweighted, weighted, queue or not: the
// Strategy and Schedule axes select the kernel configuration, while the
// legacy Algorithm values keep their historical meaning by pinning those
// axes.
type ConstructOptions struct {
	Algorithm Algorithm
	// Strategy selects the overlap-counting strategy for the kernel path
	// (Algorithm == AlgoHashmap). Zero value: auto-resolve.
	Strategy Strategy
	// Schedule selects the work distribution for the kernel path. Zero
	// value: blocked or cyclic per the Cyclic option.
	Schedule Schedule
	// Cyclic selects the cyclic range partition instead of blocked.
	Cyclic bool
	// Relabel applies relabel-by-degree before construction.
	Relabel sparse.Order
	// UseAdjoin feeds the kernel and queue-based algorithms the adjoin
	// representation instead of the bipartite one (ignored by the legacy
	// non-queue algorithms, which require the bipartite form's contiguous
	// ID space).
	UseAdjoin bool
	// Prune selects the pruning heuristics (kernel axis 4). Zero value:
	// auto-resolve from the query intent. Pair-list constructions clamp
	// levels above PruneDegree, since dropping pairs is only sound for
	// component queries.
	Prune Prune
}

func (o ConstructOptions) internal() slinegraph.Options {
	part := slinegraph.BlockedPartition
	if o.Cyclic {
		part = slinegraph.CyclicPartition
	}
	return slinegraph.Options{
		Partition: part,
		Relabel:   o.Relabel,
		Counter:   slinegraph.Counter(o.Strategy),
		Schedule:  slinegraph.Schedule(o.Schedule),
		Prune:     slinegraph.Prune(o.Prune),
	}
}

// SLineGraph is a materialized s-line graph handle exposing the s-metric
// queries of the Python API (Listing 5). It remembers the snapshot epoch it
// was built from, so RefreshSLineGraph can patch it incrementally after
// mutations instead of rebuilding.
type SLineGraph struct {
	*smetrics.SLineGraph
	// epoch and del identify the snapshot the graph was built from.
	epoch, del uint64
	// overEdges records the edges=true orientation — the only one the
	// incremental patch path covers (the dual's ID space shifts with node
	// mutations).
	overEdges bool
}

// Epoch reports the snapshot epoch the handle was built from.
func (l *SLineGraph) Epoch() uint64 { return l.epoch }

// SLineGraph constructs the s-line graph of the hypergraph with the default
// (hashmap) algorithm. With edges=true the line graph is over hyperedges
// (s-line graph); with edges=false it is over hypernodes (the s-clique
// graph of the dual), mirroring hg.s_linegraph(s, edges).
func (g *NWHypergraph) SLineGraph(s int, edges bool) *SLineGraph {
	return g.SLineGraphWith(s, edges, ConstructOptions{})
}

// SLineGraphWith constructs the s-line graph with explicit algorithm and
// partition options. If the bound engine's context is cancelled the result
// is nil; use SLineGraphCtx to observe the error.
func (g *NWHypergraph) SLineGraphWith(s int, edges bool, o ConstructOptions) *SLineGraph {
	l, _ := g.slgOn(g.engine(), s, edges, o)
	return l
}

// SLineGraphCtx is SLineGraphWith bounded by ctx: the construction aborts at
// the next grain boundary once ctx is cancelled and returns ctx.Err(). The
// returned handle stays bound to the handle's engine (without ctx), so
// subsequent s-metric queries are not affected by an expired deadline.
func (g *NWHypergraph) SLineGraphCtx(ctx context.Context, s int, edges bool, o ConstructOptions) (*SLineGraph, error) {
	return g.slgOn(g.engine().WithContext(ctx), s, edges, o)
}

func (g *NWHypergraph) slgOn(eng *Engine, s int, edges bool, o ConstructOptions) (*SLineGraph, error) {
	snap := g.snap()
	h := snap.h
	if !edges {
		h = snap.h.Dual()
	}
	stamp := func(l *smetrics.SLineGraph) *SLineGraph {
		return &SLineGraph{SLineGraph: l, epoch: snap.epoch, del: snap.del, overEdges: edges}
	}
	var (
		pairs []sparse.Edge
		err   error
	)
	opts := o.internal()
	if edges {
		// The memoized degree statistics only describe the hyperedge side;
		// dual (edges=false) constructions fall back to the kernel's scan.
		opts.Stats = g.degreeStats(eng)
	}
	switch o.Algorithm {
	case AlgoNaive:
		pairs, err = slinegraph.Naive(eng, h, s)
	case AlgoIntersection:
		pairs, err = slinegraph.Intersection(eng, h, s, opts)
	case AlgoQueueHashmap, AlgoQueueIntersection:
		var in slinegraph.Input
		if o.UseAdjoin && edges {
			in = slinegraph.FromAdjoin(g.Adjoin())
		} else {
			in = slinegraph.FromHypergraph(h)
		}
		if o.Algorithm == AlgoQueueHashmap {
			pairs, err = slinegraph.QueueHashmap(eng, in, s, opts)
		} else {
			pairs, err = slinegraph.QueueIntersection(eng, in, s, opts)
		}
	default:
		// Kernel path: Strategy and Schedule select the configuration and
		// the adjacency CSR is assembled directly from the kernel's
		// per-worker buffers — no global pair list is materialized. The
		// adjoin form keeps the pair-list adapter because its ID space is
		// wider than the line graph's vertex range.
		if o.UseAdjoin && edges {
			pairs, err = slinegraph.Construct(eng, slinegraph.FromAdjoin(g.Adjoin()), s, opts)
			break
		}
		csr, cerr := slinegraph.ConstructCSR(eng, slinegraph.FromHypergraph(h), s, opts)
		if cerr != nil {
			return nil, cerr
		}
		// Assemble on the same (possibly ctx-bound) engine the kernel ran
		// on, then rebind the handle to the handle's engine so later
		// queries outlive the request deadline.
		l, berr := smetrics.BuildCSR(eng, h, s, csr)
		if berr != nil {
			return nil, berr
		}
		return stamp(l.WithEngine(g.engine())), nil
	}
	if err != nil {
		return nil, err
	}
	nl := smetrics.BuildWith(eng, h, s, pairs)
	if err := eng.Err(); err != nil {
		return nil, err
	}
	return stamp(nl.WithEngine(g.engine())), nil
}

// WeightedSLineGraph is the strength-annotated s-line graph handle: every
// s-line edge carries its exact overlap |e ∩ f| (the edge widths of the
// paper's Figure 5), enabling strength-weighted distances.
type WeightedSLineGraph struct {
	*smetrics.WeightedSLineGraph
}

// SLineGraphWeighted constructs the s-line graph over hyperedges with
// overlap strengths retained.
func (g *NWHypergraph) SLineGraphWeighted(s int) *WeightedSLineGraph {
	return g.SLineGraphWeightedWith(s, ConstructOptions{})
}

// SLineGraphWeightedWith is SLineGraphWeighted with explicit construction
// options — the same ConstructOptions the unweighted variants take. The
// Algorithm field is ignored: the weighted emit mode runs the one kernel
// body under whatever Strategy and Schedule select.
func (g *NWHypergraph) SLineGraphWeightedWith(s int, o ConstructOptions) *WeightedSLineGraph {
	eng := g.engine()
	opts := o.internal()
	opts.Intent = slinegraph.IntentExact
	opts.Stats = g.degreeStats(eng)
	l, _ := smetrics.BuildWeightedOptions(eng, g.hg(), s, opts)
	return &WeightedSLineGraph{l}
}

// SLineGraphWeightedCtx is SLineGraphWeightedWith bounded by ctx: the
// construction aborts at the next grain boundary once ctx is cancelled and
// returns ctx.Err(). The returned handle is rebound to the handle's engine
// (without ctx), so subsequent queries are not affected by an expired
// deadline.
func (g *NWHypergraph) SLineGraphWeightedCtx(ctx context.Context, s int, o ConstructOptions) (*WeightedSLineGraph, error) {
	eng := g.engine().WithContext(ctx)
	opts := o.internal()
	opts.Intent = slinegraph.IntentExact
	opts.Stats = g.degreeStats(eng)
	l, err := smetrics.BuildWeightedOptions(eng, g.hg(), s, opts)
	if err != nil {
		return nil, err
	}
	l.SLineGraph = l.SLineGraph.WithEngine(g.engine())
	return &WeightedSLineGraph{l}, nil
}

// SLineGraphEnsembleQueue computes the s-line graphs for several values of
// s in one queue-driven pass; with useAdjoin it runs directly on the
// adjoin representation.
func (g *NWHypergraph) SLineGraphEnsembleQueue(ss []int, useAdjoin bool) map[int]*SLineGraph {
	snap := g.snap()
	var in slinegraph.Input
	if useAdjoin {
		in = slinegraph.FromAdjoin(g.Adjoin())
	} else {
		in = slinegraph.FromHypergraph(snap.h)
	}
	byS, _ := slinegraph.EnsembleQueue(g.engine(), in, ss, slinegraph.Options{})
	out := make(map[int]*SLineGraph, len(ss))
	for s, pairs := range byS {
		out[s] = &SLineGraph{
			SLineGraph: smetrics.BuildWith(g.engine(), snap.h, s, pairs),
			epoch:      snap.epoch, del: snap.del, overEdges: true,
		}
	}
	return out
}

// SConnectedComponents computes the s-connected components of the
// hyperedges without materializing the s-line graph: s-incident pairs are
// unioned into a concurrent disjoint-set forest as the queue-based
// construction discovers them, under the PruneAuto heuristics. Labels are
// canonical minimum-member IDs over [0, NumEdges()). For repeated queries on
// a mutating handle use IncrementalSCC.
func (g *NWHypergraph) SConnectedComponents(s int) []uint32 {
	labels, _ := g.SConnectedComponentsCtx(context.Background(), s, PruneAuto)
	return labels
}

// SConnectedComponentsCtx is SConnectedComponents bounded by ctx (the queue
// drain stops at the next chunk boundary once ctx is cancelled and ctx.Err()
// is returned) with an explicit prune level (see Prune). Labels are
// bit-identical at every level — the differential tests pin this — only the
// work done differs. PruneAuto runs the connectivity arsenal (degree
// prefilter + connected short-circuit) and upgrades to the toplex-only path
// when the handle's toplex cache is already warm for this snapshot —
// computing the containment map from cold costs about one kernel pass, so
// Auto never pays for it speculatively. PruneToplex forces the toplex path,
// computing and caching the cover if needed (profitable when many component
// queries hit one snapshot, the serving tier's pattern). The axis resolution
// reads the handle's memoized degree statistics.
func (g *NWHypergraph) SConnectedComponentsCtx(ctx context.Context, s int, prune Prune) ([]uint32, error) {
	h := g.hg()
	eng := g.engine().WithContext(ctx)
	in := slinegraph.FromHypergraph(h)
	if prune == PruneAuto && g.toplexCacheWarm() {
		prune = PruneToplex
	}
	opts := slinegraph.Options{Stats: g.degreeStats(eng)}
	if prune == PruneToplex {
		tops, cover, err := g.toplexCover(eng)
		if err != nil {
			return nil, err
		}
		labels, err := slinegraph.SComponentsToplex(eng, in, s, tops, cover, opts)
		if err != nil {
			return nil, err
		}
		return labels[:h.NumEdges()], nil
	}
	opts.Prune = slinegraph.Prune(prune)
	labels, err := slinegraph.SComponentsDirect(eng, in, s, opts)
	if err != nil {
		return nil, err
	}
	return labels[:h.NumEdges()], nil
}

// SLineGraphEnsemble constructs the s-line graphs for several values of s
// in one counting pass.
func (g *NWHypergraph) SLineGraphEnsemble(ss []int, edges bool) map[int]*SLineGraph {
	snap := g.snap()
	h := snap.h
	if !edges {
		h = snap.h.Dual()
	}
	byS, _ := slinegraph.Ensemble(g.engine(), h, ss, slinegraph.Options{})
	out := make(map[int]*SLineGraph, len(ss))
	for s, pairs := range byS {
		out[s] = &SLineGraph{
			SLineGraph: smetrics.BuildWith(g.engine(), h, s, pairs),
			epoch:      snap.epoch, del: snap.del, overEdges: edges,
		}
	}
	return out
}
