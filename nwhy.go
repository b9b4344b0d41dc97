// Package nwhy is a Go reproduction of NWHypergraph (NWHy), the parallel
// framework for exact and approximate hypergraph analytics of Liu, Firoz,
// Gebremedhin and Lumsdaine (IPDPS 2022).
//
// The package exposes the same surface the paper's Python API (Listing 5)
// offers over the C++ backend:
//
//	hg, _ := nwhy.New(edgeIDs, nodeIDs, weights) // NWHypergraph(row, col, weight)
//	lg := hg.SLineGraph(2, true)                 // hg.s_linegraph(s=2, edges=True)
//	ok := lg.IsSConnected()                      // s2lg.is_s_connected()
//	cc := lg.SConnectedComponents()              // s2lg.s_connected_components()
//	d := lg.SDistance(0, 1)                      // s2lg.s_distance(src=0, dest=1)
//	bc := lg.SBetweennessCentrality(true)        // s2lg.s_betweenness_centrality()
//
// Underneath sit the four hypergraph representations of the paper —
// bipartite (two mutually indexed index sets), adjoin (one shared index
// set), clique expansion, and s-line graphs — with the exact algorithms
// (HyperBFS, HyperCC, AdjoinBFS, AdjoinCC, toplexes) and six s-line-graph
// construction algorithms, including the paper's two new queue-based ones.
package nwhy

import (
	"context"
	"fmt"
	"strings"
	"sync"

	"nwhy/internal/core"
	"nwhy/internal/mmio"
	"nwhy/internal/parallel"
	"nwhy/internal/slinegraph"
	"nwhy/internal/sparse"
)

// Engine is the execution context hypergraph computations run on: a
// work-stealing worker pool, per-worker reusable scratch, and an optional
// context.Context observed at grain boundaries. See NewEngine, SharedEngine,
// and (*Engine).WithContext.
type Engine = parallel.Engine

// NewEngine creates an engine with an owned pool of workers threads
// (workers < 1 means GOMAXPROCS). Close it when done; two engines can run
// computations concurrently under independent thread budgets.
func NewEngine(workers int) *Engine { return parallel.NewEngine(workers) }

// SharedEngine returns the process-wide engine every handle binds by
// default. SetNumThreads resizes its pool.
func SharedEngine() *Engine { return parallel.SharedEngine() }

// NWHypergraph is the user-facing hypergraph handle (the Python API's
// NWHypergraph class). Every computation it exposes runs on the engine the
// handle is bound to (SharedEngine unless NewWithEngine/WithEngine said
// otherwise), and so does every handle derived from it (Dual, Toplexify,
// Collapse*, RestrictTo*).
//
// A handle is safe for concurrent readers: every query method may be called
// from many goroutines at once (on the same handle or on WithEngine copies
// sharing the underlying hypergraph) and none mutates observable state.
// Mutation goes through BeginMutation/Commit, which swaps in a fresh frozen
// snapshot atomically: queries in flight keep the snapshot they started on,
// queries started after a Commit see the new one, and nothing blocks.
// The lazily built adjoin representation is synchronized, shared across all
// copies of the handle, and keyed to the snapshot epoch it was built from.
type NWHypergraph struct {
	// state holds the epoch-swapped current snapshot, shared across every
	// WithEngine copy of the handle (a box pointer, so the atomic is never
	// copied).
	state *stateBox
	eng   *Engine
	// lazy holds the synchronized lazily built derived state, shared across
	// every WithEngine copy of the handle.
	lazy *lazyState
}

// lazyState is the derived state a handle builds on first use. It is a
// shared pointer (like smetrics' pairsBox) so WithEngine's shallow copies
// all see one build and never race on it.
type lazyState struct {
	mu sync.Mutex
	// adjoin caches the adjoin graph of the snapshot at adjoinEpoch; a
	// Commit moves the epoch and invalidates it implicitly.
	adjoin      *core.AdjoinGraph
	adjoinEpoch uint64
	// tops/cover cache Algorithm 3's output (toplex IDs plus the containment
	// map) of the snapshot at topsEpoch, shared by Toplexes, Toplexify, and
	// the toplex-only s-component path. topsValid distinguishes a cached
	// empty result from a cold cache.
	tops      []uint32
	cover     []uint32
	topsEpoch uint64
	topsValid bool
}

// newHandle builds a facade handle around h bound to eng (nil = shared
// engine at call time). Every constructor funnels through it so the state
// and lazy boxes exist before any copy of the handle escapes.
func newHandle(h *core.Hypergraph, eng *Engine) *NWHypergraph {
	return &NWHypergraph{state: newStateBox(h), eng: eng, lazy: &lazyState{}}
}

// hg returns the current frozen hypergraph.
func (g *NWHypergraph) hg() *core.Hypergraph { return g.snap().h }

// Epoch reports the handle's mutation epoch: 0 at construction, +1 per
// committed mutation batch. Cache keys derived from a handle should include
// it so entries from before a mutation cannot serve after it.
func (g *NWHypergraph) Epoch() uint64 { return g.snap().epoch }

// engine resolves the handle's bound engine, defaulting to the shared one
// so zero-value and Wrap-built handles keep working.
func (g *NWHypergraph) engine() *Engine {
	if g.eng != nil {
		return g.eng
	}
	return parallel.SharedEngine()
}

// Engine returns the engine the handle's computations run on.
func (g *NWHypergraph) Engine() *Engine { return g.engine() }

// WithEngine returns a shallow copy of the handle bound to eng: its
// computations schedule on eng's pool and observe eng's context. The
// underlying hypergraph (and cached adjoin graph) is shared, so deriving
// per-call handles is cheap.
func (g *NWHypergraph) WithEngine(eng *Engine) *NWHypergraph {
	c := *g
	c.eng = eng
	return &c
}

// New builds a hypergraph from parallel incidence arrays: incidence k says
// hyperedge edgeIDs[k] contains hypernode nodeIDs[k] (optionally with
// weights[k]). It mirrors nwhy.NWHypergraph(row, col, weight) and binds the
// shared engine.
func New(edgeIDs, nodeIDs []uint32, weights []float64) (*NWHypergraph, error) {
	return NewWithEngine(parallel.SharedEngine(), edgeIDs, nodeIDs, weights)
}

// NewWithEngine is New binding an explicit engine: every computation on the
// returned handle schedules on eng.
func NewWithEngine(eng *Engine, edgeIDs, nodeIDs []uint32, weights []float64) (*NWHypergraph, error) {
	if len(edgeIDs) != len(nodeIDs) {
		return nil, fmt.Errorf("nwhy: %d edge IDs vs %d node IDs", len(edgeIDs), len(nodeIDs))
	}
	if weights != nil && len(weights) != len(edgeIDs) {
		return nil, fmt.Errorf("nwhy: %d weights for %d incidences", len(weights), len(edgeIDs))
	}
	bel := sparse.NewBiEdgeList(0, 0)
	bel.Edges = make([]sparse.Edge, 0, len(edgeIDs))
	if weights != nil {
		bel.Weights = make([]float64, 0, len(edgeIDs))
	}
	for k := range edgeIDs {
		if weights != nil {
			bel.AddWeighted(edgeIDs[k], nodeIDs[k], weights[k])
		} else {
			bel.Add(edgeIDs[k], nodeIDs[k])
		}
	}
	h, err := core.FromBiEdgeListOn(eng, bel)
	if err != nil {
		return nil, err
	}
	return newHandle(h, eng), nil
}

// FromSets builds a hypergraph from explicit hyperedge member sets.
// numNodes < 0 infers the node count.
func FromSets(sets [][]uint32, numNodes int) *NWHypergraph {
	return newHandle(core.FromSets(sets, numNodes), nil)
}

// LoadOptions configure LoadFile.
type LoadOptions struct {
	// Engine runs the parse and is bound directly to the returned handle:
	// LoadFile(path, LoadOptions{Engine: eng}).Engine() == eng, with no
	// WithEngine copy needed afterwards — the hook warm-start loaders (e.g.
	// internal/server's registry) use to bind many datasets to one shared
	// serving engine. nil means SharedEngine.
	Engine *Engine
}

// Load reads a hypergraph from a Matrix Market incidence file or a .nwhyb
// snapshot (the paper's graph_reader, with format auto-detection).
func Load(path string) (*NWHypergraph, error) {
	return LoadFile(path, LoadOptions{})
}

// LoadFile reads a hypergraph from path under opts. A .nwhyb extension or
// the snapshot magic selects the snapshot decoder, which deserializes the
// hyperedge incidence CSR and pays one transpose for the hypernode side;
// anything else is Matrix Market text, parsed by the chunked reader and
// built into the bipartite CSR pair by counting transposes, which drop
// repeated incidences on the way. Parse and build run on opts.Engine (a
// one-worker engine parses single-threaded) and stop with its error once it
// is cancelled.
func LoadFile(path string, opts LoadOptions) (*NWHypergraph, error) {
	eng := opts.Engine
	if eng == nil {
		eng = parallel.SharedEngine()
	}
	h, err := loadHypergraph(eng, path)
	if err != nil {
		return nil, err
	}
	return newHandle(h, opts.Engine), nil
}

// loadHypergraph decodes path and builds the CSR pair, all on eng.
func loadHypergraph(eng *Engine, path string) (*core.Hypergraph, error) {
	if strings.HasSuffix(path, mmio.SnapshotExt) || mmio.IsSnapshotFile(path) {
		snap, err := mmio.LoadSnapshot(eng, path)
		if err != nil {
			return nil, err
		}
		return core.FromIncidenceCSROn(eng, snap.CSR)
	}
	bel, err := mmio.GraphReaderParallel(eng, path)
	if err != nil {
		return nil, err
	}
	return core.FromBiEdgeListOn(eng, bel)
}

// Save writes the hypergraph to a Matrix Market incidence file.
func (g *NWHypergraph) Save(path string) error {
	h := g.hg()
	bel := sparse.NewBiEdgeList(h.NumEdges(), h.NumNodes())
	for e, nbrs := range h.EdgeRange() {
		for _, v := range nbrs {
			bel.Add(uint32(e), v)
		}
	}
	return mmio.WriteHypergraphFile(path, bel)
}

// SaveSnapshot writes the hypergraph's incidence CSR to path in the .nwhyb
// binary snapshot format. Loading it back with LoadFile skips text parsing
// and the hyperedge-side build — that incidence structure deserializes
// directly — and derives the hypernode side by one counting transpose.
func (g *NWHypergraph) SaveSnapshot(path string) error {
	return mmio.SaveSnapshot(path, &mmio.Snapshot{CSR: g.hg().Edges})
}

// Hypergraph exposes the underlying bipartite representation for advanced
// use alongside the internal packages.
func (g *NWHypergraph) Hypergraph() *core.Hypergraph { return g.hg() }

// Wrap adopts an existing core.Hypergraph (e.g. from internal/gen) as a
// facade handle without copying.
func Wrap(h *core.Hypergraph) *NWHypergraph { return newHandle(h, nil) }

// NumEdges reports |E|.
func (g *NWHypergraph) NumEdges() int { return g.hg().NumEdges() }

// NumNodes reports |V|.
func (g *NWHypergraph) NumNodes() int { return g.hg().NumNodes() }

// NumIncidences reports the incidence count (non-zeros of the incidence
// matrix).
func (g *NWHypergraph) NumIncidences() int { return g.hg().NumIncidences() }

// EdgeDegree reports hyperedge e's member count |e|.
func (g *NWHypergraph) EdgeDegree(e int) int { return g.hg().EdgeDegree(e) }

// NodeDegree reports hypernode v's hyperedge count d(v).
func (g *NWHypergraph) NodeDegree(v int) int { return g.hg().NodeDegree(v) }

// Incidence returns hyperedge e's members.
func (g *NWHypergraph) Incidence(e int) []uint32 { return g.hg().EdgeIncidence(e) }

// Memberships returns hypernode v's hyperedges.
func (g *NWHypergraph) Memberships(v int) []uint32 { return g.hg().NodeIncidence(v) }

// Dual returns the dual hypergraph H* (shares storage and engine).
func (g *NWHypergraph) Dual() *NWHypergraph {
	return newHandle(g.hg().Dual(), g.eng)
}

// Stats computes the Table I characteristics row.
func (g *NWHypergraph) Stats() core.Stats { return core.ComputeStats(g.hg()) }

// Adjoin returns the adjoin representation, built on the handle's engine on
// first call and cached across every copy of the handle. It is safe for
// concurrent callers: builders are serialized and at most one adjoin graph
// is ever cached. A build aborted by a cancelled engine context returns nil
// and caches nothing, so a later call retries with a live context.
func (g *NWHypergraph) Adjoin() *core.AdjoinGraph {
	a, _ := g.adjoinAt(g.engine(), g.snap())
	return a
}

// adjoinAt is Adjoin on eng for the snapshot its caller already bound —
// like toplexCover, so one query never pairs a hypergraph with the adjoin
// graph of another epoch.
func (g *NWHypergraph) adjoinAt(eng *Engine, snap *snapshot) (*core.AdjoinGraph, error) {
	lz := g.lazy
	if lz == nil {
		// Zero-value handle (no constructor ran): build uncached.
		return core.Adjoin(eng, snap.h), eng.Err()
	}
	lz.mu.Lock()
	defer lz.mu.Unlock()
	// The cache is keyed to the snapshot epoch: a committed mutation moves
	// the epoch, so a stale adjoin graph is rebuilt on next use.
	if lz.adjoin == nil || lz.adjoinEpoch != snap.epoch {
		a := core.Adjoin(eng, snap.h)
		if err := eng.Err(); err != nil {
			return nil, err
		}
		lz.adjoin = a
		lz.adjoinEpoch = snap.epoch
	}
	return lz.adjoin, nil
}

// toplexCover returns the memoized (toplexes, containment map) of snap,
// computing core.ToplexCover on eng on first use. Same cache discipline as
// Adjoin: epoch-keyed (a Commit invalidates it), built under mu, never
// populated from a cancelled engine. The returned slices alias the cache —
// internal consumers only read them; public accessors copy.
func (g *NWHypergraph) toplexCover(eng *Engine, snap *snapshot) (tops, cover []uint32, err error) {
	lz := g.lazy
	if lz == nil {
		tops, cover = core.ToplexCover(eng, snap.h)
		return tops, cover, eng.Err()
	}
	lz.mu.Lock()
	defer lz.mu.Unlock()
	if !lz.topsValid || lz.topsEpoch != snap.epoch {
		tops, cover = core.ToplexCover(eng, snap.h)
		if err := eng.Err(); err != nil {
			return nil, nil, err
		}
		lz.tops, lz.cover = tops, cover
		lz.topsEpoch, lz.topsValid = snap.epoch, true
	}
	return lz.tops, lz.cover, nil
}

// toplexCacheWarmAt reports whether the toplex cache already holds snap's
// containment map — the signal SConnectedComponentsCtx uses to take the
// toplex-only route only when it costs nothing extra.
func (g *NWHypergraph) toplexCacheWarmAt(snap *snapshot) bool {
	lz := g.lazy
	if lz == nil {
		return false
	}
	lz.mu.Lock()
	defer lz.mu.Unlock()
	return lz.topsValid && lz.topsEpoch == snap.epoch
}

// ToplexesCtx is Toplexes bounded by ctx: the scan aborts at the next grain
// boundary once ctx is cancelled and returns ctx.Err().
func (g *NWHypergraph) ToplexesCtx(ctx context.Context) ([]uint32, error) {
	tops, _, err := g.toplexCover(g.engine().WithContext(ctx), g.snap())
	if err != nil {
		return nil, err
	}
	return append([]uint32(nil), tops...), nil
}

// Toplexify returns the hypergraph restricted to its toplexes (IDs from the
// shared epoch-keyed toplex cache). Like every derived handle below it is
// built on the handle's engine and is nil if that engine is cancelled.
func (g *NWHypergraph) Toplexify() *NWHypergraph {
	snap := g.snap()
	eng := g.engine()
	tops, _, err := g.toplexCover(eng, snap)
	if err != nil {
		return nil
	}
	return g.derived(core.RestrictToEdges(eng, snap.h, tops))
}

// derived wraps a hypergraph built from g's as a handle on g's engine, or
// returns nil when the build was cancelled.
func (g *NWHypergraph) derived(h *core.Hypergraph, err error) *NWHypergraph {
	if err != nil {
		return nil
	}
	return newHandle(h, g.eng)
}

// collapsed is derived for a collapse, which also returns its classes.
func (g *NWHypergraph) collapsed(r *core.CollapseResult, err error) (*NWHypergraph, [][]uint32) {
	if err != nil {
		return nil, nil
	}
	return newHandle(r.H, g.eng), r.Classes
}

// CollapseEdges merges duplicate hyperedges into representatives, returning
// the reduced hypergraph and the equivalence classes (the Python API's
// collapse_edges()).
func (g *NWHypergraph) CollapseEdges() (*NWHypergraph, [][]uint32) {
	return g.collapsed(core.CollapseEdges(g.engine(), g.hg()))
}

// CollapseNodes merges hypernodes with identical hyperedge memberships
// (collapse_nodes()).
func (g *NWHypergraph) CollapseNodes() (*NWHypergraph, [][]uint32) {
	return g.collapsed(core.CollapseNodes(g.engine(), g.hg()))
}

// CollapseNodesAndEdges collapses duplicate hypernodes, then duplicate
// hyperedges (collapse_nodes_and_edges()).
func (g *NWHypergraph) CollapseNodesAndEdges() (*NWHypergraph, [][]uint32) {
	r, _, err := core.CollapseNodesAndEdges(g.engine(), g.hg())
	return g.collapsed(r, err)
}

// EdgeSizeDist returns the histogram of hyperedge sizes: dist[d] counts
// hyperedges with exactly d members (edge_size_dist()).
func (g *NWHypergraph) EdgeSizeDist() []int { return core.EdgeSizeDist(g.hg()) }

// NodeDegreeDist returns the histogram of hypernode degrees.
func (g *NWHypergraph) NodeDegreeDist() []int { return core.NodeDegreeDist(g.hg()) }

// RestrictToEdges returns the sub-hypergraph induced by the given
// hyperedges (renumbered in the given order).
func (g *NWHypergraph) RestrictToEdges(edgeIDs []uint32) *NWHypergraph {
	return g.derived(core.RestrictToEdges(g.engine(), g.hg(), edgeIDs))
}

// RestrictToNodes returns the sub-hypergraph induced by the given
// hypernodes (renumbered in the given order).
func (g *NWHypergraph) RestrictToNodes(nodeIDs []uint32) *NWHypergraph {
	return g.derived(core.RestrictToNodes(g.engine(), g.hg(), nodeIDs))
}

// Validate checks structural invariants of the representation on the
// handle's engine (a cancelled one returns its context's error).
func (g *NWHypergraph) Validate() error { return g.hg().Validate(g.engine()) }

// SetNumThreads sets the worker count of the shared engine's pool, the
// analogue of constraining oneTBB's concurrency. n < 1 resets to GOMAXPROCS.
// It is a compatibility shim over the explicit-engine API: handles bound to
// their own engine (NewWithEngine / WithEngine) are unaffected.
func SetNumThreads(n int) { parallel.SetNumWorkers(n) }

// NumThreads reports the current worker count.
func NumThreads() int { return parallel.SharedEngine().NumWorkers() }

// CliqueExpansionCtx is CliqueExpansion bounded by ctx: the construction
// aborts at the next grain boundary once ctx is cancelled and returns
// ctx.Err().
func (g *NWHypergraph) CliqueExpansionCtx(ctx context.Context) ([]sparse.Edge, error) {
	return slinegraph.CliqueExpansion(g.engine().WithContext(ctx), g.hg(), slinegraph.Options{})
}
