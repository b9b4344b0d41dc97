// Package server is NWHy-Go's serving core: the concurrency-safe layer that
// turns the batch facade into a long-lived multi-tenant query service. It
// owns four pieces of shared state the batch CLIs never needed:
//
//   - a Registry of loaded hypergraphs, warm-started from .nwhyb snapshots
//     and bound to one shared serving engine (LoadOptions.Engine);
//   - an Admission controller bounding in-flight queries and the wait
//     queue, with a wait deadline and per-request context cancellation
//     reaching every kernel;
//   - an SLineCache memoizing constructed s-line graphs keyed on
//     (dataset, s, edges, weighted, epoch), with single-flight dedup of
//     concurrent identical constructions;
//   - the maintained s-component views every /scc is answered from, one per
//     (dataset, s): a union-find forest carried across insert-only commits
//     plus the answer of the newest epoch asked at.
//
// The Server type glues them together behind request-shaped methods (one
// per query kind, each taking a context.Context first) and exposes the same
// surface over stdlib HTTP via Handler. cmd/nwhyd is the thin daemon around
// it; bench/ drives both the daemon and, in its traced pass, the Server
// methods in-process.
//
// Datasets are mutable in place: Mutate stages hyperedge insertions and
// removals through the facade's delta overlay (per-dataset single writer,
// readers unaffected until commit), and the CompactEvery policy decides when
// staged batches fold into a fresh frozen snapshot. Cache keys carry the
// dataset's mutation epoch, so commits invalidate stale s-line entries by
// construction, and the next request for a shape rebuilds it.
//
// Everything here is plumbing, not computation: kernels still run on the
// facade handles' engine, and request contexts reach them through the
// facade's *Ctx variants. A /centrality vector is computed once per cached
// s-line handle by the handle's own score memo: the vectors ride on the
// handles the cache and latest hold, not on a fifth piece of server state.
package server

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"
	"time"

	"nwhy"
	"nwhy/internal/core"
)

// Sentinel errors the HTTP layer maps to status codes.
var (
	// ErrBadRequest marks malformed or out-of-range request parameters.
	ErrBadRequest = errors.New("bad request")
	// ErrUnknownDataset is returned for queries against names the registry
	// does not hold.
	ErrUnknownDataset = errors.New("unknown dataset")
	// ErrOverloaded is returned when the admission wait queue is full.
	ErrOverloaded = errors.New("overloaded: admission queue full")
	// ErrQueueTimeout is returned when a queued query's wait deadline
	// expires before an in-flight slot frees up.
	ErrQueueTimeout = errors.New("admission queue wait deadline exceeded")
)

// Config sizes the serving core.
type Config struct {
	// Engine is the shared engine every dataset handle and kernel runs on.
	// Required.
	Engine *nwhy.Engine
	// MaxInFlight bounds concurrently executing queries (< 1: twice the
	// engine's worker count).
	MaxInFlight int
	// MaxQueue bounds queries waiting for an in-flight slot (< 1: four
	// times MaxInFlight). Arrivals beyond it are rejected with
	// ErrOverloaded.
	MaxQueue int
	// QueueWait is the longest a query waits for a slot before
	// ErrQueueTimeout (<= 0: 2s).
	QueueWait time.Duration
	// CacheEntries bounds the s-line result cache (< 1: 64).
	CacheEntries int
	// CompactEvery is the compaction policy: how many staged mutation
	// operations a dataset accumulates before Mutate folds them into a new
	// frozen snapshot (< 1: every Mutate request commits immediately).
	// Staged-but-uncommitted operations are invisible to queries; Compact
	// flushes them on demand.
	CompactEvery int
}

// Server is the serving core: registry + admission + cache + metrics behind
// a request-shaped query surface. All methods are safe for concurrent use.
type Server struct {
	eng          *nwhy.Engine
	reg          *Registry
	adm          *Admission
	cache        *SLineCache
	met          *metrics
	start        time.Time
	compactEvery int

	// mutMu guards muts; each mutState's own lock serializes that dataset's
	// writers so mutations on different datasets never contend.
	mutMu sync.Mutex
	muts  map[string]*mutState

	// sccMu guards sccs and sccTick: the maintained s-CC views every /scc is
	// answered from, one per (dataset, s), replaced when the registry swaps
	// the handle and capped at maxSCCViews by least-recent use (sccTick is
	// the use clock).
	sccMu   sync.Mutex
	sccs    map[sccKey]*sccEntry
	sccTick uint64

	// latestMu guards latest: per request shape, the newest successfully
	// built unweighted s-line handle. It outlives LRU eviction, so a shape
	// asked again at an unchanged epoch costs no rebuild (the facade's
	// refresh returns it as current); at a later epoch the refresh rebuilds.
	// One handle per distinct shape, not bounded by CacheEntries. Keyed by
	// the facade handle too, so a registry swap never serves another
	// dataset's graph.
	latestMu sync.Mutex
	latest   map[latestKey]*nwhy.SLineGraph
}

// latestKey identifies one slot of latest: the epoch-less request shape
// bound to the exact facade handle it was built from.
type latestKey struct {
	base CacheKey
	g    *nwhy.NWHypergraph
}

// latestFor returns the recorded handle for key's shape on g, or nil.
func (s *Server) latestFor(key CacheKey, g *nwhy.NWHypergraph) *nwhy.SLineGraph {
	s.latestMu.Lock()
	defer s.latestMu.Unlock()
	return s.latest[latestKey{base: key.base(), g: g}]
}

// recordLatest keeps lg as the handle for key's shape on g unless a
// newer-epoch handle is already recorded (builds racing across a commit
// resolve in favor of the newer snapshot).
func (s *Server) recordLatest(key CacheKey, g *nwhy.NWHypergraph, lg *nwhy.SLineGraph) {
	lk := latestKey{base: key.base(), g: g}
	s.latestMu.Lock()
	if prev, ok := s.latest[lk]; !ok || lg.Epoch() >= prev.Epoch() {
		s.latest[lk] = lg
	}
	s.latestMu.Unlock()
}

// New builds a Server over an existing registry. The registry may keep
// gaining datasets after the server starts (Registry is concurrency-safe).
func New(cfg Config, reg *Registry) (*Server, error) {
	if cfg.Engine == nil {
		return nil, errors.New("server: Config.Engine is required")
	}
	if cfg.MaxInFlight < 1 {
		cfg.MaxInFlight = 2 * cfg.Engine.NumWorkers()
	}
	if cfg.MaxQueue < 1 {
		cfg.MaxQueue = 4 * cfg.MaxInFlight
	}
	if cfg.QueueWait <= 0 {
		cfg.QueueWait = 2 * time.Second
	}
	if cfg.CompactEvery < 1 {
		cfg.CompactEvery = 1
	}
	if reg == nil {
		reg = NewRegistry()
	}
	return &Server{
		eng:          cfg.Engine,
		reg:          reg,
		adm:          NewAdmission(cfg.MaxInFlight, cfg.MaxQueue, cfg.QueueWait),
		cache:        NewSLineCache(cfg.CacheEntries),
		met:          newMetrics(),
		start:        time.Now(),
		compactEvery: cfg.CompactEvery,
		muts:         map[string]*mutState{},
		sccs:         map[sccKey]*sccEntry{},
		latest:       map[latestKey]*nwhy.SLineGraph{},
	}, nil
}

// Registry returns the server's dataset registry.
func (s *Server) Registry() *Registry { return s.reg }

// Admission returns the server's admission controller.
func (s *Server) Admission() *Admission { return s.adm }

// Cache returns the server's s-line result cache.
func (s *Server) Cache() *SLineCache { return s.cache }

// Engine returns the shared serving engine.
func (s *Server) Engine() *nwhy.Engine { return s.eng }

// do is the admission-controlled request wrapper every query method runs
// under: acquire a slot (bounded queue, wait deadline, ctx cancellation),
// run fn, record per-endpoint latency. The admission wait and the handler
// run are timed separately so queueing pressure is visible as such on
// /metrics instead of inflating handler latency. A panic in fn is one failed
// request, not a dead daemon: it comes back as an error (HTTP 500), after
// the slot is released and the request counted.
func (s *Server) do(ctx context.Context, endpoint string, fn func(ctx context.Context) error) (err error) {
	q0 := time.Now()
	release, err := s.adm.Acquire(ctx)
	queued := time.Since(q0)
	if err != nil {
		s.met.observeRejected(endpoint, queued)
		return err
	}
	defer release()
	t0 := time.Now()
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("server: panic serving %s: %v", endpoint, r)
		}
		s.met.observe(endpoint, queued, time.Since(t0), err)
	}()
	return fn(ctx)
}

// dataset resolves a registry entry.
func (s *Server) dataset(name string) (*nwhy.NWHypergraph, error) {
	if name == "" {
		return nil, fmt.Errorf("%w: missing dataset", ErrBadRequest)
	}
	return s.reg.Get(name)
}

// DatasetInfo describes one registry entry.
type DatasetInfo struct {
	Name          string `json:"name"`
	NumEdges      int    `json:"num_edges"`
	NumNodes      int    `json:"num_nodes"`
	NumIncidences int    `json:"num_incidences"`
	Source        string `json:"source,omitempty"`
}

// Datasets lists the registry (metadata only — not admission-controlled, so
// health checks stay responsive under load).
func (s *Server) Datasets(ctx context.Context) ([]DatasetInfo, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	names := s.reg.Names()
	out := make([]DatasetInfo, 0, len(names))
	for _, n := range names {
		g, err := s.reg.Get(n)
		if err != nil {
			continue // racing a concurrent removal is fine
		}
		out = append(out, DatasetInfo{
			Name:          n,
			NumEdges:      g.NumEdges(),
			NumNodes:      g.NumNodes(),
			NumIncidences: g.NumIncidences(),
			Source:        s.reg.Source(n),
		})
	}
	return out, nil
}

// StatsResult is the Table I characteristics row for one dataset.
type StatsResult struct {
	Dataset string     `json:"dataset"`
	Stats   core.Stats `json:"stats"`
}

// Stats computes the dataset's characteristics row.
func (s *Server) Stats(ctx context.Context, dataset string) (StatsResult, error) {
	var out StatsResult
	err := s.do(ctx, "stats", func(ctx context.Context) error {
		g, err := s.dataset(dataset)
		if err != nil {
			return err
		}
		out = StatsResult{Dataset: dataset, Stats: g.Stats()}
		return ctx.Err()
	})
	return out, err
}

// ToplexesResult lists the maximal hyperedges of a dataset.
type ToplexesResult struct {
	Dataset  string   `json:"dataset"`
	Count    int      `json:"count"`
	Toplexes []uint32 `json:"toplexes"`
}

// Toplexes computes the maximal hyperedges (paper Algorithm 3).
func (s *Server) Toplexes(ctx context.Context, dataset string) (ToplexesResult, error) {
	var out ToplexesResult
	err := s.do(ctx, "toplexes", func(ctx context.Context) error {
		g, err := s.dataset(dataset)
		if err != nil {
			return err
		}
		tops, err := g.ToplexesCtx(ctx)
		if err != nil {
			return err
		}
		out = ToplexesResult{Dataset: dataset, Count: len(tops), Toplexes: tops}
		return nil
	})
	return out, err
}

// SLineRequest names one s-line graph: the cache key components.
type SLineRequest struct {
	Dataset  string
	S        int
	Edges    bool // line graph over hyperedges (true) or hypernodes (false)
	Weighted bool
}

func (r SLineRequest) validate() error {
	if r.S < 1 {
		return fmt.Errorf("%w: s must be >= 1 (got %d)", ErrBadRequest, r.S)
	}
	if r.Weighted && !r.Edges {
		return fmt.Errorf("%w: weighted s-line graphs are only supported over hyperedges", ErrBadRequest)
	}
	return nil
}

// key maps the request onto its cache key: what is built, not how (see
// CacheKey).
func (r SLineRequest) key() CacheKey {
	return CacheKey{Dataset: r.Dataset, S: r.S, Edges: r.Edges, Weighted: r.Weighted}
}

// SLineResult summarizes one constructed (or cache-served) s-line graph.
type SLineResult struct {
	Dataset     string  `json:"dataset"`
	S           int     `json:"s"`
	Edges       bool    `json:"edges"`
	Weighted    bool    `json:"weighted"`
	NumVertices int     `json:"num_vertices"`
	NumEdges    int     `json:"num_edges"`
	CacheHit    bool    `json:"cache_hit"`
	ElapsedMs   float64 `json:"elapsed_ms"`
}

// slineGraph resolves the request's s-line graph through the cache,
// constructing it under ctx on a miss. Exactly one of the returns is
// non-nil depending on req.Weighted.
//
// The cache key carries the dataset's current mutation epoch, so a commit
// makes every stale entry unaddressable without explicit invalidation. A
// miss on a shape built before goes through the facade's refresh of that
// handle: returned as is while the epoch is unchanged, rebuilt otherwise.
func (s *Server) slineGraph(ctx context.Context, req SLineRequest) (*nwhy.SLineGraph, *nwhy.WeightedSLineGraph, bool, error) {
	if err := req.validate(); err != nil {
		return nil, nil, false, err
	}
	g, err := s.dataset(req.Dataset)
	if err != nil {
		return nil, nil, false, err
	}
	key := req.key()
	key.Epoch = g.Epoch()
	return s.cache.Get(ctx, key, func() (*nwhy.SLineGraph, *nwhy.WeightedSLineGraph, error) {
		if req.Weighted {
			wlg, err := g.SLineGraphWeightedCtx(ctx, req.S, nwhy.ConstructOptions{})
			return nil, wlg, err
		}
		var lg *nwhy.SLineGraph
		var err error
		if prev := s.latestFor(key, g); prev != nil {
			lg, _, err = g.RefreshSLineGraphCtx(ctx, prev, nwhy.ConstructOptions{})
		} else {
			lg, err = g.SLineGraphCtx(ctx, req.S, req.Edges, nwhy.ConstructOptions{})
		}
		if err != nil {
			return nil, nil, err
		}
		s.recordLatest(key, g, lg)
		return lg, nil, nil
	})
}

// SLine constructs (or serves from cache) the requested s-line graph and
// returns its shape.
func (s *Server) SLine(ctx context.Context, req SLineRequest) (SLineResult, error) {
	var out SLineResult
	err := s.do(ctx, "slinegraph", func(ctx context.Context) error {
		t0 := time.Now()
		lg, wlg, hit, err := s.slineGraph(ctx, req)
		if err != nil {
			return err
		}
		out = SLineResult{
			Dataset: req.Dataset, S: req.S, Edges: req.Edges, Weighted: req.Weighted,
			CacheHit: hit, ElapsedMs: float64(time.Since(t0)) / float64(time.Millisecond),
		}
		if req.Weighted {
			out.NumVertices, out.NumEdges = wlg.NumVertices(), wlg.NumEdges()
		} else {
			out.NumVertices, out.NumEdges = lg.NumVertices(), lg.NumEdges()
		}
		return nil
	})
	return out, err
}

// SCCRequest asks for the s-connected components of a dataset's hyperedges.
type SCCRequest struct {
	Dataset string
	S       int
	// Incremental is accepted and has no effect: every request is answered
	// by the maintained view.
	Incremental bool
	// WithLabels includes the full per-hyperedge label vector in the
	// result (the summary is always present).
	WithLabels bool
}

// SCCResult summarizes the s-component structure at one epoch.
type SCCResult struct {
	Dataset string `json:"dataset"`
	S       int    `json:"s"`
	// Epoch is the mutation epoch the labels and the summary belong to.
	Epoch         uint64 `json:"epoch"`
	NumComponents int    `json:"num_components"`
	LargestSize   int    `json:"largest_size"`
	// Incremental reports that the answer took no full recompute: it came
	// from memory, or by absorbing insert-only commits into the view.
	Incremental bool `json:"incremental,omitempty"`
	// Labels is shared with every other reply of its epoch; read only.
	Labels []uint32 `json:"labels,omitempty"`
}

// SComponents answers s-connected components from the server-held view of
// (dataset, s): labels are a function of (dataset, epoch, s), so they are
// computed once per epoch and no s-line graph is ever materialized.
func (s *Server) SComponents(ctx context.Context, req SCCRequest) (SCCResult, error) {
	var out SCCResult
	err := s.do(ctx, "scc", func(ctx context.Context) error {
		if req.S < 1 {
			return fmt.Errorf("%w: s must be >= 1 (got %d)", ErrBadRequest, req.S)
		}
		g, err := s.dataset(req.Dataset)
		if err != nil {
			return err
		}
		a, inc, err := s.sccView(req.Dataset, req.S, g).answer(ctx)
		if err != nil {
			return err
		}
		out = SCCResult{
			Dataset: req.Dataset, S: req.S, Epoch: a.epoch,
			NumComponents: a.components, LargestSize: a.largest, Incremental: inc,
		}
		if req.WithLabels {
			out.Labels = a.labels
		}
		return nil
	})
	return out, err
}

// SDistanceRequest asks for the s-walk distance between two hyperedges.
type SDistanceRequest struct {
	Dataset  string
	S        int
	Src, Dst int
	Weighted bool
}

// SDistanceResult carries the hop (or strength-weighted) s-distance;
// Distance is -1 (or +Inf serialized as "unreachable") when disconnected.
type SDistanceResult struct {
	Dataset   string  `json:"dataset"`
	S         int     `json:"s"`
	Src       int     `json:"src"`
	Dst       int     `json:"dst"`
	Weighted  bool    `json:"weighted"`
	Distance  float64 `json:"distance"`
	Reachable bool    `json:"reachable"`
	CacheHit  bool    `json:"cache_hit"`
}

func (s *Server) checkEndpoints(dataset string, src, dst int) error {
	g, err := s.dataset(dataset)
	if err != nil {
		return err
	}
	if src < 0 || src >= g.NumEdges() || dst < 0 || dst >= g.NumEdges() {
		return fmt.Errorf("%w: src/dst must be hyperedge IDs in [0,%d)", ErrBadRequest, g.NumEdges())
	}
	return nil
}

// SDistance computes the s-distance between two hyperedges via the cached
// s-line graph.
func (s *Server) SDistance(ctx context.Context, req SDistanceRequest) (SDistanceResult, error) {
	var out SDistanceResult
	err := s.do(ctx, "sdistance", func(ctx context.Context) error {
		if err := s.checkEndpoints(req.Dataset, req.Src, req.Dst); err != nil {
			return err
		}
		lg, wlg, hit, err := s.slineGraph(ctx, SLineRequest{Dataset: req.Dataset, S: req.S, Edges: true, Weighted: req.Weighted})
		if err != nil {
			return err
		}
		out = SDistanceResult{Dataset: req.Dataset, S: req.S, Src: req.Src, Dst: req.Dst, Weighted: req.Weighted, CacheHit: hit}
		if req.Weighted {
			d, err := wlg.SDistanceWeightedCtx(ctx, req.Src, req.Dst)
			if err != nil {
				return err
			}
			out.Distance, out.Reachable = d, !isInf(d)
		} else {
			d, err := lg.SDistanceCtx(ctx, req.Src, req.Dst)
			if err != nil {
				return err
			}
			out.Distance, out.Reachable = float64(d), d >= 0
		}
		return nil
	})
	return out, err
}

// SPathResult carries one shortest s-walk (nil when unreachable).
type SPathResult struct {
	Dataset  string   `json:"dataset"`
	S        int      `json:"s"`
	Src      int      `json:"src"`
	Dst      int      `json:"dst"`
	Weighted bool     `json:"weighted"`
	Path     []uint32 `json:"path"`
	CacheHit bool     `json:"cache_hit"`
}

// SPath computes one shortest s-walk between two hyperedges.
func (s *Server) SPath(ctx context.Context, req SDistanceRequest) (SPathResult, error) {
	var out SPathResult
	err := s.do(ctx, "spath", func(ctx context.Context) error {
		if err := s.checkEndpoints(req.Dataset, req.Src, req.Dst); err != nil {
			return err
		}
		lg, wlg, hit, err := s.slineGraph(ctx, SLineRequest{Dataset: req.Dataset, S: req.S, Edges: true, Weighted: req.Weighted})
		if err != nil {
			return err
		}
		out = SPathResult{Dataset: req.Dataset, S: req.S, Src: req.Src, Dst: req.Dst, Weighted: req.Weighted, CacheHit: hit}
		if req.Weighted {
			out.Path, err = wlg.SPathWeightedCtx(ctx, req.Src, req.Dst)
		} else {
			out.Path, err = lg.SPathCtx(ctx, req.Src, req.Dst)
		}
		return err
	})
	return out, err
}

// CentralityKind names one s-centrality.
type CentralityKind string

const (
	CentralityBetweenness  CentralityKind = "betweenness"
	CentralityCloseness    CentralityKind = "closeness"
	CentralityHarmonic     CentralityKind = "harmonic"
	CentralityEccentricity CentralityKind = "eccentricity"
	CentralityPageRank     CentralityKind = "pagerank"
)

// CentralityRequest asks for a per-hyperedge centrality vector over s-walks.
type CentralityRequest struct {
	Dataset    string
	S          int
	Kind       CentralityKind
	Normalized bool // betweenness only
	Weighted   bool // strength-weighted walks (not supported for pagerank)
}

// CentralityResult carries the full score vector.
type CentralityResult struct {
	Dataset  string         `json:"dataset"`
	S        int            `json:"s"`
	Kind     CentralityKind `json:"kind"`
	Weighted bool           `json:"weighted"`
	Scores   []float64      `json:"scores"`
	CacheHit bool           `json:"cache_hit"`
}

// Centrality computes an s-centrality vector via the cached s-line graph.
// Every kind but pagerank is computed once per handle (the facade's score
// memo); the reply's Scores is the caller's own copy.
func (s *Server) Centrality(ctx context.Context, req CentralityRequest) (CentralityResult, error) {
	var out CentralityResult
	err := s.do(ctx, "centrality", func(ctx context.Context) error {
		// Reject what no build can answer before building (and caching) one.
		switch req.Kind {
		case CentralityBetweenness, CentralityCloseness, CentralityHarmonic, CentralityEccentricity:
		case CentralityPageRank:
			if req.Weighted {
				return fmt.Errorf("%w: weighted pagerank is not supported", ErrBadRequest)
			}
		default:
			return fmt.Errorf("%w: unknown centrality kind %q", ErrBadRequest, req.Kind)
		}
		lg, wlg, hit, err := s.slineGraph(ctx, SLineRequest{Dataset: req.Dataset, S: req.S, Edges: true, Weighted: req.Weighted})
		if err != nil {
			return err
		}
		var scores []float64
		switch req.Kind {
		case CentralityBetweenness:
			if req.Weighted {
				scores, err = wlg.SBetweennessCentralityWeightedCtx(ctx, req.Normalized)
			} else {
				scores, err = lg.SBetweennessCentralityCtx(ctx, req.Normalized)
			}
		case CentralityCloseness:
			if req.Weighted {
				scores, err = wlg.SClosenessCentralityWeightedCtx(ctx)
			} else {
				scores, err = lg.SClosenessCentralityCtx(ctx)
			}
		case CentralityHarmonic:
			if req.Weighted {
				scores, err = wlg.SHarmonicClosenessCentralityWeightedCtx(ctx)
			} else {
				scores, err = lg.SHarmonicClosenessCentralityCtx(ctx)
			}
		case CentralityEccentricity:
			if req.Weighted {
				scores, err = wlg.SEccentricityWeightedCtx(ctx)
			} else {
				scores, err = lg.SEccentricityCtx(ctx)
			}
		case CentralityPageRank:
			scores, err = lg.SPageRankCtx(ctx, 0.85, 1e-9, 100)
		}
		if err != nil {
			return err
		}
		out = CentralityResult{Dataset: req.Dataset, S: req.S, Kind: req.Kind, Weighted: req.Weighted, Scores: scores, CacheHit: hit}
		return nil
	})
	return out, err
}

// HealthResult is the /healthz payload.
type HealthResult struct {
	Status     string   `json:"status"`
	Datasets   []string `json:"datasets"`
	InFlight   int64    `json:"in_flight"`
	QueueDepth int64    `json:"queue_depth"`
}

// Health reports liveness plus the key load gauges. Not
// admission-controlled: it must answer even when the query queue is full.
func (s *Server) Health() HealthResult {
	names := s.reg.Names()
	sort.Strings(names)
	return HealthResult{
		Status:     "ok",
		Datasets:   names,
		InFlight:   s.adm.InFlight(),
		QueueDepth: s.adm.QueueDepth(),
	}
}

func isInf(f float64) bool { return math.IsInf(f, 1) }
