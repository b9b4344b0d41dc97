package main

import (
	"fmt"
	"os"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// benchVersion names the benchmark's definition (workloads, sizes, metric
// definitions). Results of different versions are not comparable.
const benchVersion = "2"

// engineWorkers is the worker count of every engine the benchmark creates
// and of the daemon (-threads): the machine has two cores.
const engineWorkers = 2

// metricDef declares one metric; the two lists below are mirrored by
// BENCHMARK.json (a test keeps them equal).
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the metrics a user of the system sees, measured with tracing
// off. Every workload reports every one of them; what "operation" and
// "components query" mean per workload is in README.md.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"latency_ms", "ms", "lower", 0.25},
	{"cc_ms_p50", "ms", "lower", 0.25},
}

// perLayer are the metrics of single layers from the traced pass, layer =
// module name. A metric whose layer is not on a workload's path reads 0
// there. They carry no bound.
var perLayer = []metricDef{
	{Name: "mmio.parse_ms", Unit: "ms", Better: "lower"},
	{Name: "mmio.parse_mb_per_s", Unit: "MB/s", Better: "higher"},
	{Name: "mmio.snapshot_save_ms", Unit: "ms", Better: "lower"},
	{Name: "mmio.snapshot_load_ms", Unit: "ms", Better: "lower"},
	{Name: "sparse.dedup_ms", Unit: "ms", Better: "lower"},
	{Name: "sparse.csr_build_ms", Unit: "ms", Better: "lower"},
	{Name: "core.stats_ms", Unit: "ms", Better: "lower"},
	{Name: "core.hypercc_ms", Unit: "ms", Better: "lower"},
	{Name: "core.hyperbfs_ms", Unit: "ms", Better: "lower"},
	{Name: "core.toplex_cover_ms", Unit: "ms", Better: "lower"},
	{Name: "slinegraph.degree_stats_ms", Unit: "ms", Better: "lower"},
	{Name: "slinegraph.construct_csr_ms", Unit: "ms", Better: "lower"},
	{Name: "slinegraph.construct_pairs_ms", Unit: "ms", Better: "lower"},
	{Name: "slinegraph.count_union_ms", Unit: "ms", Better: "lower"},
	{Name: "slinegraph.scc_pruned_ms", Unit: "ms", Better: "lower"},
	{Name: "slinegraph.line_edges", Unit: "count", Better: "lower"},
	{Name: "slinegraph.line_edges_per_s", Unit: "1/s", Better: "higher"},
	{Name: "slinegraph.construct_csr_alloc_mb", Unit: "MB", Better: "lower"},
	{Name: "slinegraph.auto_over_best", Unit: "ratio", Better: "lower"},
	{Name: "smetrics.build_ms", Unit: "ms", Better: "lower"},
	{Name: "graph.cc_ms", Unit: "ms", Better: "lower"},
	{Name: "graph.bfs_ms", Unit: "ms", Better: "lower"},
	{Name: "graph.betweenness_ms", Unit: "ms", Better: "lower"},
	{Name: "graph.harmonic_ms", Unit: "ms", Better: "lower"},
	{Name: "graph.betweenness_alloc_mb", Unit: "MB", Better: "lower"},
	{Name: "parallel.construct_speedup_w2", Unit: "ratio", Better: "higher"},
	{Name: "parallel.parse_speedup_w2", Unit: "ratio", Better: "higher"},
	{Name: "parallel.betweenness_speedup_w2", Unit: "ratio", Better: "higher"},
	{Name: "nwhy.facade_self_ms", Unit: "ms", Better: "lower"},
	{Name: "nwhy.alloc_mb_per_op", Unit: "MB", Better: "lower"},
	{Name: "nwhy.cpu_ms_per_op", Unit: "ms", Better: "lower"},
	{Name: "nwhy.peak_rss_mb", Unit: "MB", Better: "lower"},
	{Name: "nwhy.commit_ms", Unit: "ms", Better: "lower"},
	{Name: "nwhy.incremental_scc_ms", Unit: "ms", Better: "lower"},
	{Name: "nwhy.refresh_sline_ms", Unit: "ms", Better: "lower"},
	{Name: "server.sline_hit_ms", Unit: "ms", Better: "lower"},
	{Name: "server.sline_miss_ms", Unit: "ms", Better: "lower"},
	{Name: "server.scc_ms", Unit: "ms", Better: "lower"},
	{Name: "server.scc_incremental_ms", Unit: "ms", Better: "lower"},
	{Name: "server.sdistance_ms", Unit: "ms", Better: "lower"},
	{Name: "server.spath_ms", Unit: "ms", Better: "lower"},
	{Name: "server.centrality_ms", Unit: "ms", Better: "lower"},
	{Name: "server.toplexes_ms", Unit: "ms", Better: "lower"},
	{Name: "server.stats_ms", Unit: "ms", Better: "lower"},
	{Name: "server.mutate_ms", Unit: "ms", Better: "lower"},
	{Name: "server.encode_ms", Unit: "ms", Better: "lower"},
	{Name: "server.encode_bytes", Unit: "bytes", Better: "lower"},
	{Name: "server.cache_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "server.cache_evictions", Unit: "count", Better: "lower"},
	{Name: "server.cache_waits", Unit: "count", Better: "lower"},
	{Name: "server.queue_ms_mean", Unit: "ms", Better: "lower"},
	{Name: "server.admission_rejected", Unit: "count", Better: "lower"},
	{Name: "server.admission_timed_out", Unit: "count", Better: "lower"},
	{Name: "server.http_overhead_ms", Unit: "ms", Better: "lower"},
	{Name: "nwhyd.warm_start_ms", Unit: "ms", Better: "lower"},
	{Name: "nwhyd.peak_rss_mb", Unit: "MB", Better: "lower"},
	{Name: "nwhyd.cpu_ms_per_req", Unit: "ms", Better: "lower"},
	{Name: "nwhyd.req_ms_p99", Unit: "ms", Better: "lower"},
	{Name: "nwhyd.write_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "bench.trace_overhead_pct", Unit: "%", Better: "lower"},
	{Name: "bench.calibration_ms", Unit: "ms", Better: "lower"},
}

// sample is one reported metric value and the number of samples behind it.
type sample struct {
	Value float64
	N     int
}

// runConfig is one run of one workload.
type runConfig struct {
	seed    int64
	seconds float64 // how long the measured phase runs
	trace   bool    // also run the traced pass and report per-layer metrics
	setups  int     // how many times to set up (setup_s is their median)
	workDir string  // scratch directory inside the checkout, removed by the caller
}

// measuredPhase is how long the end-to-end phase lasts: all of seconds, or
// half of it when the traced pass has to fit in the run as well.
func (c runConfig) measuredPhase() time.Duration {
	d := time.Duration(c.seconds * float64(time.Second))
	if c.trace {
		d /= 2
	}
	return d
}

// runResult is what one run measured.
type runResult struct {
	Attempted  int
	Failed     int
	Mismatches []string // the first few, for diagnosis
	E2E        map[string]sample
	Raw        map[string]float64 // the end-to-end values as measured, before calibration
	calMs      float64            // the reference kernel's median over the measured phase
	Layer      map[string]sample  // traced runs only
	Shares     map[string]float64 // each layer's share of the traced self time
	Sizes      map[string]any
	spans      []span
}

const maxMismatches = 8

// fail records one failed operation.
func (r *runResult) fail(format string, args ...any) {
	r.Failed++
	if len(r.Mismatches) < maxMismatches {
		r.Mismatches = append(r.Mismatches, fmt.Sprintf(format, args...))
	}
}

// setTime records an end-to-end duration: raw is as measured, and what is
// reported is raw at the reference host speed of cal's phase.
func (r *runResult) setTime(name string, raw float64, n int, cal *calibrator) {
	r.Raw[name] = raw
	r.E2E[name] = sample{raw * cal.factor(), n}
}

// setRate is setTime for a rate (work per second).
func (r *runResult) setRate(name string, raw float64, n int, cal *calibrator) {
	r.Raw[name] = raw
	r.E2E[name] = sample{raw / cal.factor(), n}
}

// checkRegistered refuses a metric that neither list declares: it would be
// measured and then silently left out of every report.
func checkRegistered(r *runResult) error {
	check := func(got map[string]sample, defs []metricDef) error {
		for name := range got {
			if !slices.ContainsFunc(defs, func(d metricDef) bool { return d.Name == name }) {
				return fmt.Errorf("bench: metric %q is reported but not declared", name)
			}
		}
		return nil
	}
	if err := check(r.E2E, endToEnd); err != nil {
		return err
	}
	return check(r.Layer, perLayer)
}

// workload is one named set of inputs and the operation run on them.
type workload struct {
	name string
	why  string
	run  func(cfg runConfig) (*runResult, error)
}

var workloads = []workload{
	{"batch-skew", "power-law file to s-line graph, s-components and s-distances: the s-overlap kernel (count, emit, CSR assembly) does nearly all the work", runBatchSkew},
	{"batch-metrics", "community file to s-betweenness and harmonic closeness: graph and smetrics dominate, the s-overlap kernel is noise", runBatchMetrics},
	{"ingest-traverse", "uniform file to parse, snapshot round trip, hypergraph CC and BFS: mmio and sparse dominate, slinegraph and graph do nothing", runIngestTraverse},
	{"serve-read", "read-only query mix over a live nwhyd, six hot s-line keys plus a cold tail: admission, single-flight cache, JSON encode, pruned /scc", runServeRead},
	{"serve-write", "one writer committing batches beside readers on a live nwhyd: every commit bumps the epoch, so caches are invalidated or patched, not hit", runServeWrite},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// timeMs runs fn reps times and returns the median duration in ms.
func timeMs(reps int, fn func() error) (float64, error) {
	ds := make([]float64, reps)
	for i := range ds {
		t0 := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		ds[i] = ms(time.Since(t0))
	}
	return median(ds), nil
}

// allocMB runs fn and returns the megabytes it allocated.
func allocMB(fn func() error) (float64, error) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err := fn()
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / 1e6, err
}

// selfCPU is the CPU time (user + system) this process has used.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// clockTicksPerSecond is USER_HZ, the unit of utime/stime in /proc/<pid>/stat;
// it is 100 on every Linux architecture Go supports.
const clockTicksPerSecond = 100

// procCPU is the CPU time (user + system) process pid has used.
func procCPU(pid int) (time.Duration, error) {
	data, err := os.ReadFile("/proc/" + strconv.Itoa(pid) + "/stat")
	if err != nil {
		return 0, err
	}
	// The command name (field 2) may hold spaces; fields count from after it.
	rest := string(data)
	if i := strings.LastIndexByte(rest, ')'); i >= 0 {
		rest = rest[i+1:]
	}
	f := strings.Fields(rest)
	if len(f) < 13 {
		return 0, fmt.Errorf("bench: short /proc/%d/stat", pid)
	}
	utime, err1 := strconv.ParseInt(f[11], 10, 64)
	stime, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("bench: bad times in /proc/%d/stat", pid)
	}
	return time.Duration(utime+stime) * time.Second / clockTicksPerSecond, nil
}

// peakRSSMB is process pid's peak resident set (VmHWM) in megabytes; pid 0
// is this process.
func peakRSSMB(pid int) (float64, error) {
	dir := "self"
	if pid != 0 {
		dir = strconv.Itoa(pid)
	}
	data, err := os.ReadFile("/proc/" + dir + "/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, err
			}
			return kb * 1024 / 1e6, nil
		}
	}
	return 0, fmt.Errorf("bench: no VmHWM in /proc/%s/status", dir)
}

// resetPeakRSS restarts this process's VmHWM from its current resident set,
// so the generator's and the oracle's footprint before the measured phase
// do not count. Where the kernel refuses, the peak simply keeps its history.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}
