package main

import (
	"encoding/json"
	"fmt"
	"maps"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// The three batch workloads drive the paper-shaped facade in this process:
// one operation is one whole pipeline, file bytes on disk to JSON bytes.

// pipelineOutput is what one pipeline marshals; the oracle builds the same
// value, and every timed operation's JSON is decoded and compared to it.
type pipelineOutput struct {
	Workload       string      `json:"workload"`
	Stats          hyperStats  `json:"stats"`
	S              int         `json:"s,omitempty"`
	LineEdges      int         `json:"line_edges,omitempty"`
	Components     []uint32    `json:"components"`
	NodeComponents []uint32    `json:"node_components,omitempty"`
	Distances      []int       `json:"distances,omitempty"`
	Betweenness    []float64   `json:"betweenness,omitempty"`
	Harmonic       []float64   `json:"harmonic,omitempty"`
	BFS            []bfsOutput `json:"bfs,omitempty"`
}

type bfsOutput struct {
	Src        int     `json:"src"`
	EdgeLevels []int32 `json:"edge_levels"`
	NodeLevels []int32 `json:"node_levels"`
}

// batchSpec is the fixed definition of one batch workload.
type batchSpec struct {
	name         string
	generate     func() incidence // structure only, before relabeling
	s            int              // 0: no s-line stage (ingest-traverse)
	centralities bool
	pairs        int // s-distance queries per operation
	bfsSources   int // hypergraph BFS runs per operation
	sizes        map[string]any
}

var batchSkew = batchSpec{
	name:     "batch-skew",
	generate: func() incidence { return genPowerLaw(10000, 8000, 40000, 1.6, structureSeed) },
	s:        2, pairs: 16,
	sizes: map[string]any{"generator": "BipartitePowerLaw", "edges": 10000, "nodes": 8000, "incidences": 40000, "skew": 1.6, "s": 2, "sdistance_pairs": 16},
}

var batchMetrics = batchSpec{
	name:     "batch-metrics",
	generate: func() incidence { return genCommunity(3000, 600, 7, 1.6, 0.5, structureSeed) },
	s:        2, centralities: true, pairs: 64,
	sizes: map[string]any{"generator": "Community", "edges": 3000, "nodes": 600, "mean_size": 7, "size_skew": 1.6, "member_skew": 0.5, "s": 2, "sdistance_pairs": 64},
}

var ingestTraverse = batchSpec{
	name:       "ingest-traverse",
	generate:   func() incidence { return genUniform(100000, 100000, 10, structureSeed) },
	bfsSources: 4,
	sizes:      map[string]any{"generator": "Uniform", "edges": 100000, "nodes": 100000, "edge_size": 10, "bfs_sources": 4},
}

func runBatchSkew(cfg runConfig) (*runResult, error)      { return runBatch(batchSkew, cfg) }
func runBatchMetrics(cfg runConfig) (*runResult, error)   { return runBatch(batchMetrics, cfg) }
func runIngestTraverse(cfg runConfig) (*runResult, error) { return runBatch(ingestTraverse, cfg) }

// batchCase is one seeded instance of a batch workload: the relabeled
// input, its file, the seeded queries and the oracle's answer.
type batchCase struct {
	spec     batchSpec
	mtxPath  string
	mtxBytes int64
	snapPath string
	pairs    [][2]int
	sources  []int
	expected pipelineOutput
}

// input generates the seeded input: the fixed structure under a seeded
// relabeling. It is the first step of every set-up.
func (spec batchSpec) input(seed int64) incidence {
	return relabel(spec.generate(), rand.New(rand.NewSource(seed)))
}

// expect draws the seeded queries and computes the oracle's answer. Query
// sources come from the largest component, so every seed's searches cover
// the same share of the graph and do the same work.
func (c *batchCase) expect(inc incidence, seed int64) {
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	o := newOracleHG(inc)
	exp := pipelineOutput{Workload: c.spec.name, Stats: o.stats(), S: c.spec.s}
	if c.spec.s > 0 {
		line := lineAt(len(o.edges), o.overlaps(c.spec.s), c.spec.s)
		exp.LineEdges = line.numEdges
		exp.Components = line.components()
		giant := largestComponent(exp.Components)
		dist := make([]int32, len(line.adj))
		for i := 0; i < c.spec.pairs; i++ {
			src := giant[rng.Intn(len(giant))]
			dst := rng.Intn(len(o.edges))
			if i%2 == 0 {
				dst = giant[rng.Intn(len(giant))]
			}
			c.pairs = append(c.pairs, [2]int{src, dst})
			line.bfs(src, dist, nil)
			exp.Distances = append(exp.Distances, int(dist[dst]))
		}
		if c.spec.centralities {
			exp.Betweenness, exp.Harmonic = line.centralities()
		}
	} else {
		exp.Components, exp.NodeComponents = o.bipartiteCC()
		giant := largestComponent(exp.Components)
		for i := 0; i < c.spec.bfsSources; i++ {
			src := giant[rng.Intn(len(giant))]
			c.sources = append(c.sources, src)
			el, nl := o.bipartiteBFS(src)
			exp.BFS = append(exp.BFS, bfsOutput{src, el, nl})
		}
	}
	c.expected = exp
}

// facadeOp is one operation of the end-to-end pass: only facade calls. cc
// is how long its components query took, from the loaded hypergraph to the
// component labels — an end-to-end metric of its own.
func (c *batchCase) facadeOp(eng *engine) (out []byte, cc time.Duration, err error) {
	g, err := loadFile(c.mtxPath, eng)
	if err != nil {
		return nil, 0, err
	}
	res := pipelineOutput{Workload: c.spec.name, S: c.spec.s}
	if c.spec.s > 0 {
		res.Stats = facadeStats(g)
		t1 := time.Now()
		lg := facadeSLineGraph(g, c.spec.s)
		if lg == nil {
			return nil, 0, fmt.Errorf("SLineGraph(%d) returned nil", c.spec.s)
		}
		res.Components = facadeSComponents(lg)
		cc = time.Since(t1)
		res.LineEdges = facadeLineEdges(lg)
		if c.spec.centralities {
			res.Betweenness = facadeSBetweenness(lg)
			res.Harmonic = facadeSHarmonic(lg)
		}
		for _, p := range c.pairs {
			res.Distances = append(res.Distances, facadeSDistance(lg, p[0], p[1]))
		}
	} else {
		if err := saveSnapshot(g, c.snapPath); err != nil {
			return nil, 0, err
		}
		if g, err = loadFile(c.snapPath, eng); err != nil {
			return nil, 0, err
		}
		res.Stats = facadeStats(g)
		t1 := time.Now()
		res.Components, res.NodeComponents = facadeHyperCC(g)
		cc = time.Since(t1)
		for _, src := range c.sources {
			el, nl := facadeHyperBFS(g, src)
			res.BFS = append(res.BFS, bfsOutput{src, el, nl})
		}
	}
	out, err = json.Marshal(res)
	return out, cc, err
}

// tracedOp is the same pipeline decomposed into the calls the facade makes
// into each layer, one span per call.
func (c *batchCase) tracedOp(eng *engine, rec *recorder) (out []byte, err error) {
	step := func(name string, fn func() error) {
		if err == nil {
			rec.do(name, func() { err = fn() })
		}
	}
	rec.nextOp()
	rec.do("bench.pipeline", func() {
		var (
			bel  *biEdgeList
			h    *coreHyper
			csr  *csrMatrix
			line *metricLine
			st   *degreeStats
		)
		res := pipelineOutput{Workload: c.spec.name, S: c.spec.s}
		step("mmio.parse", func() error {
			data, err := os.ReadFile(c.mtxPath)
			if err != nil {
				return err
			}
			bel, err = mmioParse(eng, data)
			return err
		})
		step("sparse.dedup", func() error { return sparseDedup(eng, bel) })
		step("sparse.csr_build", func() error { h = sparseBuild(bel); return nil })
		if c.spec.s > 0 {
			step("core.stats", func() error { res.Stats = coreStats(h); return nil })
			step("slinegraph.degree_stats", func() error { st = lineDegreeStats(eng, lineInputOf(h)); return nil })
			step("slinegraph.construct_csr", func() error {
				csr, err = lineConstructCSR(eng, lineInputOf(h), c.spec.s, counterAuto, st)
				return err
			})
			step("smetrics.build", func() error {
				line, err = metricsBuild(eng, h, c.spec.s, csr)
				return err
			})
			step("graph.cc", func() error {
				res.LineEdges = csrLineEdges(csr)
				res.Components = graphCC(line)
				return nil
			})
			if c.spec.centralities {
				step("graph.betweenness", func() error { res.Betweenness = graphBetweenness(line); return nil })
				step("graph.harmonic", func() error { res.Harmonic = graphHarmonic(line); return nil })
			}
			for _, p := range c.pairs {
				step("graph.bfs", func() error {
					res.Distances = append(res.Distances, graphBFS(line, p[0], p[1]))
					return nil
				})
			}
		} else {
			step("mmio.snapshot_save", func() error { return saveSnapshot(facadeWrap(h, eng), c.snapPath) })
			step("mmio.snapshot_load", func() error {
				csr, err = mmioLoadSnapshot(eng, c.snapPath)
				return err
			})
			step("sparse.csr_build", func() error { h = sparseBuildFromCSR(csr); return nil })
			step("core.stats", func() error { res.Stats = coreStats(h); return nil })
			step("core.hypercc", func() error {
				res.Components, res.NodeComponents, err = coreHyperCC(eng, h)
				return err
			})
			for _, src := range c.sources {
				step("core.hyperbfs", func() error {
					el, nl, err := coreHyperBFS(eng, h, src)
					res.BFS = append(res.BFS, bfsOutput{src, el, nl})
					return err
				})
			}
		}
		step("bench.json_encode", func() error {
			out, err = json.Marshal(res)
			return err
		})
	})
	return out, err
}

// check decodes one operation's JSON and compares it to the oracle: counts,
// labels, levels and distances exactly, centralities to 1e-9 relative.
func (c *batchCase) check(out []byte) string {
	var got pipelineOutput
	if err := json.Unmarshal(out, &got); err != nil {
		return "output is not valid JSON: " + err.Error()
	}
	exp := &c.expected
	switch {
	case got.Workload != exp.Workload || got.S != exp.S:
		return "wrong header"
	case !sameStats(got.Stats, exp.Stats):
		return fmt.Sprintf("stats %+v, oracle %+v", got.Stats, exp.Stats)
	case got.LineEdges != exp.LineEdges:
		return fmt.Sprintf("line_edges %d, oracle %d", got.LineEdges, exp.LineEdges)
	case !equalSlices(got.Components, exp.Components):
		return "component labels differ from the oracle"
	case !equalSlices(got.NodeComponents, exp.NodeComponents):
		return "hypernode component labels differ from the oracle"
	case !equalSlices(got.Distances, exp.Distances):
		return fmt.Sprintf("distances %v, oracle %v", got.Distances, exp.Distances)
	case !closeSlices(got.Betweenness, exp.Betweenness):
		return "betweenness differs from the oracle by more than 1e-9 relative"
	case !closeSlices(got.Harmonic, exp.Harmonic):
		return "harmonic closeness differs from the oracle by more than 1e-9 relative"
	case len(got.BFS) != len(exp.BFS):
		return "wrong number of BFS results"
	}
	for i, b := range got.BFS {
		e := exp.BFS[i]
		if b.Src != e.Src || !equalSlices(b.EdgeLevels, e.EdgeLevels) || !equalSlices(b.NodeLevels, e.NodeLevels) {
			return fmt.Sprintf("BFS levels from hyperedge %d differ from the oracle", e.Src)
		}
	}
	return ""
}

func equalSlices[T comparable](a, b []T) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

const relTol = 1e-9

// closeTo compares two scores to relTol relative, with an absolute floor
// for scores that are zero up to rounding.
func closeTo(a, b float64) bool {
	return math.Abs(a-b) <= relTol*math.Max(math.Abs(a), math.Abs(b))+1e-15
}

func closeSlices(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !closeTo(a[i], b[i]) {
			return false
		}
	}
	return true
}

func sameStats(a, b hyperStats) bool {
	return a.NumNodes == b.NumNodes && a.NumEdges == b.NumEdges &&
		a.MaxNodeDegree == b.MaxNodeDegree && a.MaxEdgeDegree == b.MaxEdgeDegree &&
		closeTo(a.AvgNodeDegree, b.AvgNodeDegree) && closeTo(a.AvgEdgeDegree, b.AvgEdgeDegree)
}

// runBatch runs one batch workload: set-ups, the measured end-to-end pass
// and, when tracing, the decomposed pass and the per-layer extras.
func runBatch(spec batchSpec, cfg runConfig) (*runResult, error) {
	eng := newEngine(engineWorkers)
	defer closeEngine(eng)
	res := &runResult{E2E: map[string]sample{}, Raw: map[string]float64{}, Sizes: maps.Clone(spec.sizes)}
	c := &batchCase{
		spec:     spec,
		mtxPath:  filepath.Join(cfg.workDir, spec.name+".mtx"),
		snapPath: filepath.Join(cfg.workDir, spec.name+snapshotExt),
	}

	// Set-up: generate, write the file, one warm-up operation. The oracle
	// runs once, between the first set-up's generation and its file write,
	// and is not part of set-up time: it is the benchmark's cost, not the
	// system's, and no later change can move it. The reference kernel runs
	// twice before every set-up and after the last (see calibrate.go).
	setupCal := newCalibrator(eng)
	var setups []float64
	for k := 0; k < cfg.setups; k++ {
		setupCal.sample()
		setupCal.sample()
		t0 := time.Now()
		inc := spec.input(cfg.seed)
		gen := time.Since(t0)
		if k == 0 {
			c.expect(inc, cfg.seed)
		}
		t1 := time.Now()
		var err error
		if c.mtxBytes, err = writeMTX(c.mtxPath, inc); err != nil {
			return nil, err
		}
		out, _, err := c.facadeOp(eng)
		if err != nil {
			return nil, fmt.Errorf("%s: warm-up operation: %w", spec.name, err)
		}
		setups = append(setups, (gen + time.Since(t1)).Seconds())
		if k == 0 {
			if why := c.check(out); why != "" {
				res.fail("warm-up: %s", why)
			}
		}
	}
	setupCal.sample()
	setupCal.sample()
	res.Sizes["mtx_bytes"] = c.mtxBytes
	res.setTime("setup_s", median(setups), len(setups), setupCal)

	// Measured pass: whole operations until the time is used up, the
	// reference kernel before each and after the last. Outputs are kept and
	// checked afterwards, so the CPU and memory of checking stay out of the
	// measurement.
	budget := cfg.measuredPhase()
	cal := setupCal.fresh()
	var (
		outs       [][]byte
		opMs, ccMs []float64
		busy, cpu  time.Duration
		alloc      uint64
	)
	resetPeakRSS()
	var m0, m1 runtime.MemStats
	for busy < budget {
		cal.sample()
		runtime.ReadMemStats(&m0)
		cpu0, t0 := selfCPU(), time.Now()
		out, cc, err := c.facadeOp(eng)
		d := time.Since(t0)
		cpu += selfCPU() - cpu0
		runtime.ReadMemStats(&m1)
		alloc += m1.TotalAlloc - m0.TotalAlloc
		busy += d
		res.Attempted++
		if err != nil {
			res.fail("operation %d: %v", res.Attempted, err)
			continue
		}
		outs = append(outs, out)
		opMs, ccMs = append(opMs, ms(d)), append(ccMs, ms(cc))
	}
	cal.sample()
	res.calMs = cal.medianMs()
	rss, err := peakRSSMB(0)
	if err != nil {
		return nil, err
	}
	for i, out := range outs {
		if why := c.check(out); why != "" {
			res.fail("operation %d: %s", i+1, why)
		}
	}
	n := len(opMs)
	if n == 0 {
		return res, nil
	}
	res.setRate("ops_per_s", float64(n)/busy.Seconds(), n, cal)
	res.setTime("latency_ms", median(opMs), n, cal)
	res.setTime("cc_ms_p50", median(ccMs), n, cal)

	if cfg.trace {
		res.Layer = map[string]sample{}
		res.Layer["nwhy.cpu_ms_per_op"] = sample{ms(cpu) / float64(res.Attempted), res.Attempted}
		res.Layer["nwhy.peak_rss_mb"] = sample{rss, 1}
		res.Layer["nwhy.alloc_mb_per_op"] = sample{float64(alloc) / 1e6 / float64(res.Attempted), res.Attempted}
		res.Layer["bench.calibration_ms"] = sample{res.calMs, len(cal.samples)}
		if err := c.tracedPass(eng, cfg, res); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// tracedPass runs the decomposed pipeline under the span recorder, checks
// it against the same oracle, and derives the per-layer metrics.
func (c *batchCase) tracedPass(eng *engine, cfg runConfig, res *runResult) error {
	rec := newRecorder()
	budget := cfg.measuredPhase() / 2 // a quarter of the run, shared with the facade pipelines beside it
	var tracedMs, facadeMs []float64
	traced := func() error {
		t0 := time.Now()
		out, err := c.tracedOp(eng, rec)
		if err != nil {
			return fmt.Errorf("%s: traced operation: %w", c.spec.name, err)
		}
		tracedMs = append(tracedMs, ms(time.Since(t0)))
		res.Attempted++
		if why := c.check(out); why != "" {
			res.fail("traced operation %d: %s", len(tracedMs), why)
		}
		return nil
	}
	// The untraced facade pipeline runs beside the decomposed one, the two
	// taking turns to go first so that neither always inherits the other's
	// garbage: their difference is what decomposing and tracing cost. The
	// host's speed wanders too much within a run to compare against the
	// end-to-end phase before.
	facade := func() error {
		t0 := time.Now()
		_, _, err := c.facadeOp(eng)
		facadeMs = append(facadeMs, ms(time.Since(t0)))
		return err
	}
	for start := time.Now(); time.Since(start) < budget || len(tracedMs) < 2; {
		first, second := traced, facade
		if len(tracedMs)%2 == 1 {
			first, second = facade, traced
		}
		if err := first(); err != nil {
			return err
		}
		if err := second(); err != nil {
			return err
		}
	}
	res.spans = rec.spans
	res.Shares = layerSelfShares(rec.spans)
	ops := len(tracedMs)
	ns, calls := spanTotals(rec.spans)
	for name, n := range calls {
		if layerOf(name) != "bench" { // the benchmark's own glue is not a layer of the program
			res.Layer[name+"_ms"] = sample{float64(ns[name]) / 1e6 / float64(ops), n}
		}
	}
	if parse := res.Layer["mmio.parse_ms"].Value; parse > 0 {
		res.Layer["mmio.parse_mb_per_s"] = sample{float64(c.mtxBytes) / 1e6 / (parse / 1e3), calls["mmio.parse"]}
	}
	// The pipeline span's self time is what runs between the layer calls:
	// the glue around them.
	var glue int64
	for i, self := range selfTimes(rec.spans) {
		if rec.spans[i].Name == "bench.pipeline" {
			glue += self
		}
	}
	res.Layer["nwhy.facade_self_ms"] = sample{float64(glue) / 1e6 / float64(ops), ops}
	res.Layer["bench.trace_overhead_pct"] = sample{(median(tracedMs) - median(facadeMs)) / median(facadeMs) * 100, ops}
	return c.extras(eng, res)
}

// extras measures what no span of the pipeline shows: the same kernel under
// other options, on one worker, and its allocations.
func (c *batchCase) extras(eng *engine, res *runResult) error {
	const reps = 2
	set := func(name string, v float64, n int) { res.Layer[name] = sample{v, n} }
	eng1 := newEngine(1)
	defer closeEngine(eng1)
	data, err := os.ReadFile(c.mtxPath)
	if err != nil {
		return err
	}
	parse := func(e *engine) func() error {
		return func() error { _, err := mmioParse(e, data); return err }
	}
	if c.spec.s == 0 {
		w1, err := timeMs(reps, parse(eng1))
		if err != nil {
			return err
		}
		w2, err := timeMs(reps, parse(eng))
		if err != nil {
			return err
		}
		set("parallel.parse_speedup_w2", w1/w2, reps)
		return nil
	}

	bel, err := mmioParse(eng, data)
	if err != nil {
		return err
	}
	if err := sparseDedup(eng, bel); err != nil {
		return err
	}
	h := sparseBuild(bel)
	in, s := lineInputOf(h), c.spec.s
	st := lineDegreeStats(eng, in)
	construct := func(e *engine, k counter) func() error {
		return func() error { _, err := lineConstructCSR(e, in, s, k, st); return err }
	}
	auto, err := timeMs(reps, construct(eng, counterAuto))
	if err != nil {
		return err
	}
	best := math.Inf(1)
	for _, k := range fixedCounters {
		t, err := timeMs(reps, construct(eng, k))
		if err != nil {
			return err
		}
		best = math.Min(best, t)
	}
	set("slinegraph.auto_over_best", auto/best, reps)
	w1, err := timeMs(reps, construct(eng1, counterAuto))
	if err != nil {
		return err
	}
	set("parallel.construct_speedup_w2", w1/auto, reps)
	mb, err := allocMB(construct(eng, counterAuto))
	if err != nil {
		return err
	}
	set("slinegraph.construct_csr_alloc_mb", mb, 1)

	pairs, err := timeMs(reps, func() error { _, err := lineConstructPairs(eng, in, s, counterAuto, st); return err })
	if err != nil {
		return err
	}
	set("slinegraph.construct_pairs_ms", pairs, reps)
	for name, pruned := range map[string]bool{"slinegraph.count_union_ms": false, "slinegraph.scc_pruned_ms": true} {
		t, err := timeMs(reps, func() error { _, err := lineSComponents(eng, in, s, pruned, st); return err })
		if err != nil {
			return err
		}
		set(name, t, reps)
	}
	edges := float64(c.expected.LineEdges)
	set("slinegraph.line_edges", edges, 1)
	if csrMs := res.Layer["slinegraph.construct_csr_ms"].Value; csrMs > 0 {
		set("slinegraph.line_edges_per_s", edges/(csrMs/1e3), res.Layer["slinegraph.construct_csr_ms"].N)
	}

	if c.spec.centralities {
		csr, err := lineConstructCSR(eng, in, s, counterAuto, st)
		if err != nil {
			return err
		}
		line, err := metricsBuild(eng, h, s, csr)
		if err != nil {
			return err
		}
		bc := func(l *metricLine) func() error {
			return func() error { graphBetweenness(l); return nil }
		}
		w2, _ := timeMs(reps, bc(line))
		w1, _ := timeMs(reps, bc(lineWithEngine(line, eng1)))
		set("parallel.betweenness_speedup_w2", w1/w2, reps)
		mb, _ := allocMB(bc(line))
		set("graph.betweenness_alloc_mb", mb, 1)
	}
	return nil
}
