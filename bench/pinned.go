package main

// pinned.go is the whole surface of the program the benchmark binds to:
// every symbol, flag, endpoint and JSON field it uses is named here and
// nowhere else in bench/, and bench/README.md lists them. Later changes to
// the program must keep this file compiling and these names meaning what
// they mean today, because a change that claims a gain may not edit the
// benchmark.

import (
	"context"
	"encoding/json"
	"fmt"
	"net/url"
	"strconv"
	"time"

	"nwhy"
	"nwhy/internal/core"
	"nwhy/internal/gen"
	"nwhy/internal/mmio"
	"nwhy/internal/server"
	"nwhy/internal/slinegraph"
	"nwhy/internal/smetrics"
	"nwhy/internal/sparse"
)

// ---- generators (internal/gen), reduced to plain incidence lists ----

// incidence is a generated hypergraph as plain lists: edges[e] holds the
// hypernode IDs of hyperedge e. It is all the oracle ever sees.
type incidence struct {
	numNodes int
	edges    [][]uint32
}

func incidenceOf(h *core.Hypergraph) incidence {
	inc := incidence{numNodes: h.NumNodes(), edges: make([][]uint32, h.NumEdges())}
	for e := range inc.edges {
		inc.edges[e] = append([]uint32(nil), h.EdgeIncidence(e)...)
	}
	return inc
}

func genPowerLaw(ne, nv, m int, skew float64, seed int64) incidence {
	return incidenceOf(gen.BipartitePowerLaw(ne, nv, m, skew, seed))
}

func genCommunity(ne, nv int, meanSize, sizeSkew, memberSkew float64, seed int64) incidence {
	return incidenceOf(gen.Community(gen.CommunityConfig{
		NumEdges: ne, NumNodes: nv, MeanEdgeSize: meanSize, SizeSkew: sizeSkew, MemberSkew: memberSkew, Seed: seed,
	}))
}

func genUniform(ne, nv, edgeSize int, seed int64) incidence {
	return incidenceOf(gen.Uniform(ne, nv, edgeSize, seed))
}

func genContainment(numBase, nv, baseSize, subsPerBase int, memberSkew float64, seed int64) incidence {
	return incidenceOf(gen.Containment(gen.ContainmentConfig{
		NumBase: numBase, NumNodes: nv, BaseSize: baseSize, SubsPerBase: subsPerBase, MemberSkew: memberSkew, Seed: seed,
	}))
}

// ---- the facade (package nwhy): everything the end-to-end passes call ----

type (
	engine    = nwhy.Engine
	hyper     = nwhy.NWHypergraph
	lineGraph = nwhy.SLineGraph
)

func newEngine(workers int) *engine { return nwhy.NewEngine(workers) }
func closeEngine(eng *engine)       { eng.Close() }

// runConcurrently runs the n bodies at once on eng's workers and waits: the
// closed-loop clients run here, as the repo's lint forbids go statements.
func runConcurrently(eng *engine, n int, body func(i int)) { eng.ForEach(n, body) }

func loadFile(path string, eng *engine) (*hyper, error) {
	return nwhy.LoadFile(path, nwhy.LoadOptions{Engine: eng})
}

func saveSnapshot(g *hyper, path string) error { return g.SaveSnapshot(path) }

func facadeStats(g *hyper) hyperStats { return statsOf(g.Stats()) }

func statsOf(st core.Stats) hyperStats {
	return hyperStats{
		NumNodes: st.NumNodes, NumEdges: st.NumEdges,
		AvgNodeDegree: st.AvgNodeDegree, AvgEdgeDegree: st.AvgEdgeDegree,
		MaxNodeDegree: st.MaxNodeDegree, MaxEdgeDegree: st.MaxEdgeDegree,
	}
}

func facadeHyperCC(g *hyper) (edgeComp, nodeComp []uint32) {
	r := g.ConnectedComponents(nwhy.CCHyper)
	return r.EdgeComp, r.NodeComp
}

func facadeHyperBFS(g *hyper, src int) (edgeLevel, nodeLevel []int32) {
	r := g.BFS(src, nwhy.BFSDirectionOptimizing)
	return r.EdgeLevel, r.NodeLevel
}

func facadeSLineGraph(g *hyper, s int) *lineGraph     { return g.SLineGraph(s, true) }
func facadeLineEdges(lg *lineGraph) int               { return lg.NumEdges() }
func facadeSComponents(lg *lineGraph) []uint32        { return lg.SConnectedComponents() }
func facadeSDistance(lg *lineGraph, src, dst int) int { return lg.SDistance(src, dst) }
func facadeSBetweenness(lg *lineGraph) []float64      { return lg.SBetweennessCentrality(true) }
func facadeSHarmonic(lg *lineGraph) []float64         { return lg.SHarmonicClosenessCentrality() }

// ---- the daemon (cmd/nwhyd): package, flags, endpoints, JSON fields ----

const (
	daemonPackage = "./cmd/nwhyd"
	// The daemon prints "nwhyd listening on <addr> (...)" once it serves.
	daemonListening = "nwhyd listening on "
	daemonThreads   = 2
	daemonCache     = 8
)

func daemonArgs(dataDir string) []string {
	return []string{
		"-addr", "127.0.0.1:0",
		"-data", dataDir,
		"-threads", strconv.Itoa(daemonThreads),
		"-cache", strconv.Itoa(daemonCache),
		"-queue-wait", "60s",
	}
}

// snapshotExt is the extension the daemon's -data directory is scanned for.
const snapshotExt = ".nwhyb"

type reqKind int

const (
	kindStats reqKind = iota
	kindToplexes
	kindSLine
	kindSCC       // /scc, summary only
	kindSCCLabels // /scc?labels=true
	kindSCCInc    // /scc?incremental=true
	kindSDistance
	kindSPath
	kindHarmonic // /centrality?kind=harmonic&top=10
	kindMutate   // POST /mutate, commit=true
	numKinds
)

var kindNames = [numKinds]string{"stats", "toplexes", "slinegraph", "scc", "scc_labels", "scc_incremental", "sdistance", "spath", "centrality", "mutate"}

// edgeOp is one operation of a POST /mutate body.
type edgeOp struct {
	Op      string   `json:"op"`
	Members []uint32 `json:"members,omitempty"`
	ID      uint32   `json:"id,omitempty"`
}

// request is one entry of a client's schedule.
type request struct {
	kind     reqKind
	dataset  string
	s        int
	src, dst int
	labels   bool // with kindSCCInc: also return the label vector
	ops      []edgeOp
}

const harmonicTop = 10

// wire renders the request as the daemon's HTTP surface expects it.
func (r request) wire() (method, pathAndQuery string, body []byte) {
	q := url.Values{"dataset": {r.dataset}}
	withS := func() { q.Set("s", strconv.Itoa(r.s)) }
	switch r.kind {
	case kindStats:
		return "GET", "/stats?" + q.Encode(), nil
	case kindToplexes:
		return "GET", "/toplexes?" + q.Encode(), nil
	case kindSLine:
		withS()
		return "GET", "/slinegraph?" + q.Encode(), nil
	case kindSCC, kindSCCLabels, kindSCCInc:
		withS()
		if r.kind == kindSCCLabels || r.labels {
			q.Set("labels", "true")
		}
		if r.kind == kindSCCInc {
			q.Set("incremental", "true")
		}
		return "GET", "/scc?" + q.Encode(), nil
	case kindSDistance, kindSPath:
		withS()
		q.Set("src", strconv.Itoa(r.src))
		q.Set("dst", strconv.Itoa(r.dst))
		if r.kind == kindSPath {
			return "GET", "/spath?" + q.Encode(), nil
		}
		return "GET", "/sdistance?" + q.Encode(), nil
	case kindHarmonic:
		withS()
		q.Set("kind", "harmonic")
		q.Set("top", strconv.Itoa(harmonicTop))
		return "GET", "/centrality?" + q.Encode(), nil
	case kindMutate:
		body, _ = json.Marshal(struct {
			Dataset string   `json:"dataset"`
			Ops     []edgeOp `json:"ops"`
			Commit  bool     `json:"commit"`
		}{r.dataset, r.ops, true}) // marshalling plain structs cannot fail
		return "POST", "/mutate", body
	}
	panic(fmt.Sprintf("bench: no wire form for request kind %d", r.kind))
}

const (
	pathHealthz = "/healthz"
	pathMetrics = "/metrics"
)

// The response fields the benchmark reads, by endpoint.
type (
	statsResponse struct {
		Stats struct {
			NumNodes, NumEdges           int
			AvgNodeDegree, AvgEdgeDegree float64
			MaxNodeDegree, MaxEdgeDegree int
		} `json:"stats"`
	}
	toplexesResponse struct {
		Count    int      `json:"count"`
		Toplexes []uint32 `json:"toplexes"`
	}
	slineResponse struct {
		NumVertices int  `json:"num_vertices"`
		NumEdges    int  `json:"num_edges"`
		CacheHit    bool `json:"cache_hit"`
	}
	sccResponse struct {
		NumComponents int      `json:"num_components"`
		LargestSize   int      `json:"largest_size"`
		Incremental   bool     `json:"incremental"`
		Labels        []uint32 `json:"labels"`
	}
	sdistanceResponse struct {
		Distance  float64 `json:"distance"`
		Reachable bool    `json:"reachable"`
	}
	spathResponse struct {
		Path []uint32 `json:"path"`
	}
	centralityResponse struct {
		Scores []float64 `json:"scores"`
		Top    []struct {
			ID    int     `json:"id"`
			Score float64 `json:"score"`
		} `json:"top"`
	}
	mutateResponse struct {
		Added     []uint32 `json:"added"`
		Removed   int      `json:"removed"`
		Committed bool     `json:"committed"`
		Epoch     uint64   `json:"epoch"`
	}
	// metricsResponse is the part of GET /metrics the traced pass reads.
	metricsResponse struct {
		Admission struct {
			Admitted, Rejected int64
			TimedOut           int64 `json:"timed_out"`
		} `json:"admission"`
		Cache struct {
			Hits, Misses, Waits, Evictions int64
		} `json:"cache"`
		Endpoints []struct {
			Endpoint    string  `json:"endpoint"`
			Count       int64   `json:"count"`
			Rejected    int64   `json:"rejected"`
			MeanQueueMs float64 `json:"mean_queue_ms"`
		} `json:"endpoints"`
	}
)

// ---- in-process serving core (internal/server): traced pass only ----

type inprocServer struct{ srv *server.Server }

func newInprocServer(eng *engine, datasets map[string]*hyper) (*inprocServer, error) {
	reg := server.NewRegistry()
	for name, g := range datasets {
		reg.Add(name, g, "bench")
	}
	srv, err := server.New(server.Config{Engine: eng, CacheEntries: daemonCache, QueueWait: time.Minute}, reg)
	if err != nil {
		return nil, err
	}
	return &inprocServer{srv}, nil
}

// call runs one schedule entry against the Server method its endpoint maps
// to, returning the value the HTTP layer would encode and, for /slinegraph,
// whether the cache served it.
func (p *inprocServer) call(ctx context.Context, r request) (out any, cacheHit bool, err error) {
	switch r.kind {
	case kindStats:
		out, err = p.srv.Stats(ctx, r.dataset)
	case kindToplexes:
		out, err = p.srv.Toplexes(ctx, r.dataset)
	case kindSLine:
		var res server.SLineResult
		res, err = p.srv.SLine(ctx, server.SLineRequest{Dataset: r.dataset, S: r.s, Edges: true})
		out, cacheHit = res, res.CacheHit
	case kindSCC, kindSCCLabels, kindSCCInc:
		out, err = p.srv.SComponents(ctx, server.SCCRequest{
			Dataset: r.dataset, S: r.s, WithLabels: r.kind == kindSCCLabels || r.labels, Incremental: r.kind == kindSCCInc,
		})
	case kindSDistance:
		out, err = p.srv.SDistance(ctx, server.SDistanceRequest{Dataset: r.dataset, S: r.s, Src: r.src, Dst: r.dst})
	case kindSPath:
		out, err = p.srv.SPath(ctx, server.SDistanceRequest{Dataset: r.dataset, S: r.s, Src: r.src, Dst: r.dst})
	case kindHarmonic:
		out, err = p.srv.Centrality(ctx, server.CentralityRequest{Dataset: r.dataset, S: r.s, Kind: server.CentralityHarmonic})
	case kindMutate:
		ops := make([]server.EdgeOp, len(r.ops))
		for i, op := range r.ops {
			ops[i] = server.EdgeOp{Op: op.Op, Members: op.Members, ID: op.ID}
		}
		out, err = p.srv.Mutate(ctx, server.MutateRequest{Dataset: r.dataset, Ops: ops, Commit: true})
	default:
		err = fmt.Errorf("bench: no in-process call for request kind %d", r.kind)
	}
	return out, cacheHit, err
}

// addedIDs extracts the IDs a Mutate call assigned (in-process twin of
// mutateResponse.Added).
func addedIDs(out any) []uint32 { return out.(server.MutateResult).Added }

// ---- facade mutation surface: traced pass of serve-write only ----

// facadeCommit stages adds and removes in one batch and commits it.
func facadeCommit(ctx context.Context, g *hyper, adds [][]uint32, removes []uint32) ([]uint32, error) {
	m, err := g.BeginMutation()
	if err != nil {
		return nil, err
	}
	ids := make([]uint32, 0, len(adds))
	for _, members := range adds {
		id, err := m.AddEdge(members)
		if err != nil {
			return nil, err
		}
		ids = append(ids, id)
	}
	for _, e := range removes {
		if err := m.RemoveEdge(e); err != nil {
			return nil, err
		}
	}
	return ids, m.CommitCtx(ctx)
}

type incrementalView = nwhy.IncrementalSCC

func facadeIncrementalSCC(g *hyper, s int) *incrementalView { return g.IncrementalSCC(s) }

func incrementalLabels(ctx context.Context, v *incrementalView) ([]uint32, error) {
	labels, _, err := v.Labels(ctx)
	return labels, err
}

func facadeRefreshSLine(ctx context.Context, g *hyper, lg *lineGraph) (*lineGraph, error) {
	nl, _, err := g.RefreshSLineGraphCtx(ctx, lg, nwhy.ConstructOptions{})
	return nl, err
}

// ---- internal entry points, one per layer: traced pass only ----

type (
	biEdgeList  = sparse.BiEdgeList
	coreHyper   = core.Hypergraph
	csrMatrix   = sparse.CSR
	lineInput   = slinegraph.Input
	degreeStats = slinegraph.DegreeStats
	metricLine  = smetrics.SLineGraph
)

func mmioParse(eng *engine, data []byte) (*biEdgeList, error) {
	return mmio.ReadBiEdgeListParallel(eng, data)
}

func mmioLoadSnapshot(eng *engine, path string) (*csrMatrix, error) {
	snap, err := mmio.LoadSnapshot(eng, path)
	if err != nil {
		return nil, err
	}
	if snap.CSR == nil {
		return nil, fmt.Errorf("bench: snapshot %s holds no CSR", path)
	}
	return snap.CSR, nil
}

func sparseDedup(eng *engine, bel *biEdgeList) error { return bel.DedupOn(eng) }
func sparseBuild(bel *biEdgeList) *coreHyper         { return core.FromBiEdgeList(bel) }
func sparseBuildFromCSR(c *csrMatrix) *coreHyper     { return core.FromIncidenceCSR(c) }
func coreStats(h *coreHyper) hyperStats              { return statsOf(core.ComputeStats(h)) }
func coreToplexCover(eng *engine, h *coreHyper) []uint32 {
	tops, _ := core.ToplexCover(eng, h)
	return tops
}
func facadeWrap(h *coreHyper, eng *engine) *hyper { return nwhy.Wrap(h).WithEngine(eng) }

func coreHyperCC(eng *engine, h *coreHyper) (edgeComp, nodeComp []uint32, err error) {
	r, err := core.HyperCC(eng, h)
	if err != nil {
		return nil, nil, err
	}
	return r.EdgeComp, r.NodeComp, nil
}

func coreHyperBFS(eng *engine, h *coreHyper, src int) (edgeLevel, nodeLevel []int32, err error) {
	r, err := core.HyperBFSDirectionOptimizing(eng, h, src)
	if err != nil {
		return nil, nil, err
	}
	return r.EdgeLevel, r.NodeLevel, nil
}

// counter names the overlap-counting strategies of slinegraph.Options.
type counter = slinegraph.Counter

const (
	counterAuto         = slinegraph.AutoCounter
	counterHashmap      = slinegraph.HashmapCounter
	counterDense        = slinegraph.DenseCounter
	counterIntersection = slinegraph.IntersectionCounter
)

var fixedCounters = []counter{counterHashmap, counterDense, counterIntersection}

func lineInputOf(h *coreHyper) lineInput { return slinegraph.FromHypergraph(h) }

func lineDegreeStats(eng *engine, in lineInput) *degreeStats {
	st := slinegraph.ComputeDegreeStats(eng, in)
	return &st
}

// lineConstructPairs runs the kernel into a pair list and returns its length.
func lineConstructPairs(eng *engine, in lineInput, s int, c counter, st *degreeStats) (int, error) {
	pairs, err := slinegraph.Construct(eng, in, s, slinegraph.Options{Counter: c, Stats: st})
	return len(pairs), err
}

func lineConstructCSR(eng *engine, in lineInput, s int, c counter, st *degreeStats) (*csrMatrix, error) {
	return slinegraph.ConstructCSR(eng, in, s, slinegraph.Options{Counter: c, Stats: st})
}

// lineSComponents runs the union-find components kernel: unpruned counts
// and unions every candidate pair; pruned is the zero-value (auto) level.
func lineSComponents(eng *engine, in lineInput, s int, pruned bool, st *degreeStats) ([]uint32, error) {
	o := slinegraph.Options{Stats: st}
	if !pruned {
		o.Prune = slinegraph.NoPrune
	}
	return slinegraph.SComponentsDirect(eng, in, s, o)
}

func csrLineEdges(c *csrMatrix) int { return c.NumEdges() / 2 }

func metricsBuild(eng *engine, h *coreHyper, s int, c *csrMatrix) (*metricLine, error) {
	return smetrics.BuildCSR(eng, h, s, c)
}

func graphCC(l *metricLine) []uint32                        { return l.SConnectedComponents() }
func graphBFS(l *metricLine, src, dst int) int              { return l.SDistance(src, dst) }
func graphBetweenness(l *metricLine) []float64              { return l.SBetweennessCentrality(true) }
func graphHarmonic(l *metricLine) []float64                 { return l.SHarmonicClosenessCentrality() }
func lineWithEngine(l *metricLine, eng *engine) *metricLine { return l.WithEngine(eng) }
