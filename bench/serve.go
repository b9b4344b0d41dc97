package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"syscall"
	"time"
)

// The two serve workloads drive a real nwhyd child process over a loopback
// socket: two closed-loop clients on two keep-alive connections. The
// callers are analyst scripts and notebooks — the paper's Python-API users —
// which wait for each reply before sending the next request, hence a closed
// loop and not an arrival schedule.

const serveClients = 2

// dataset shapes, fixed (see structureSeed).
func commInput(rng *rand.Rand) incidence {
	return relabel(genCommunity(6500, 1000, 7, 1.6, 0.5, structureSeed), rng)
}

func containInput(rng *rand.Rand) incidence {
	return relabel(genContainment(1200, 8000, 24, 7, 0.45, structureSeed), rng)
}

var (
	hotS  = []int{2, 3, 4}    // six hot keys on two datasets fit the 8-entry cache
	coldS = []int{5, 6, 7, 8} // the cold tail forces misses and evictions
)

// ---- the daemon child process ----

// buildDaemon compiles nwhyd from the checkout's source into dir.
func buildDaemon(dir string) (string, error) {
	bin := filepath.Join(dir, "nwhyd")
	cmd := exec.Command("go", "build", "-o", bin, daemonPackage)
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build %s: %v\n%s", daemonPackage, err, out)
	}
	return bin, nil
}

type daemon struct {
	cmd     *exec.Cmd
	stop    context.CancelFunc
	base    string  // http://host:port
	startMs float64 // launch until /healthz answered
}

// startDaemon launches nwhyd on dataDir and waits until /healthz answers.
// The child's output goes to a file; stopping sends SIGTERM and, should the
// drain hang, kills it five seconds later.
func startDaemon(bin, dataDir, logPath string) (*daemon, error) {
	logFile, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	defer logFile.Close() // the child keeps its own descriptor
	ctx, cancel := context.WithCancel(context.Background())
	cmd := exec.CommandContext(ctx, bin, daemonArgs(dataDir)...)
	cmd.Stdout, cmd.Stderr = logFile, logFile
	cmd.Cancel = func() error { return cmd.Process.Signal(syscall.SIGTERM) }
	cmd.WaitDelay = 5 * time.Second
	// Should the benchmark itself die, the kernel takes the child with it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		cancel()
		return nil, err
	}
	d := &daemon{cmd: cmd, stop: cancel}
	for deadline := t0.Add(30 * time.Second); d.base == ""; time.Sleep(2 * time.Millisecond) {
		if time.Now().After(deadline) {
			d.close()
			log, _ := os.ReadFile(logPath)
			return nil, fmt.Errorf("nwhyd did not start listening within 30s; its output:\n%s", log)
		}
		log, _ := os.ReadFile(logPath)
		if _, rest, ok := strings.Cut(string(log), daemonListening); ok {
			if addr, _, ok := strings.Cut(rest, " "); ok {
				d.base = "http://" + addr
			}
		}
	}
	resp, err := http.Get(d.base + pathHealthz)
	if err == nil {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("%s answered %s", pathHealthz, resp.Status)
		}
	}
	if err != nil {
		d.close()
		return nil, err
	}
	d.startMs = ms(time.Since(t0))
	return d, nil
}

// close stops the child and waits until it has ended.
func (d *daemon) close() {
	d.stop()
	_ = d.cmd.Wait() // a signalled exit is the expected outcome
}

// ---- clients ----

type client struct {
	http *http.Client
	base string
}

func newClient(base string) *client {
	tr := &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1}
	return &client{&http.Client{Transport: tr, Timeout: 2 * time.Minute}, base}
}

// reply is one completed request as the client saw it.
type reply struct {
	req    request
	status int
	body   []byte
	err    error
	dur    time.Duration
}

func (c *client) do(r request) reply {
	method, path, body := r.wire()
	t0 := time.Now()
	rep := reply{req: r}
	hreq, err := http.NewRequest(method, c.base+path, bytes.NewReader(body))
	if err != nil {
		rep.err = err
		return rep
	}
	resp, err := c.http.Do(hreq)
	if err != nil {
		rep.err, rep.dur = err, time.Since(t0)
		return rep
	}
	rep.body, rep.err = io.ReadAll(resp.Body)
	resp.Body.Close()
	rep.status, rep.dur = resp.StatusCode, time.Since(t0)
	return rep
}

// get fetches one path and decodes its JSON.
func (c *client) get(path string, into any) error {
	resp, err := c.http.Get(c.base + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", path, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(into)
}

// ---- schedules ----

// mixEntry is one request kind's count in a block of the schedule. Blocks
// hold exact counts in seeded order, so every run of every seed sends the
// same mix and only the order and the parameters differ.
type mixEntry struct {
	kind  reqKind
	count int
}

// readMix is serve-read's block of 100.
var readMix = []mixEntry{
	{kindSDistance, 38}, {kindSCC, 10}, {kindSCCLabels, 10}, {kindSLine, 15},
	{kindSPath, 10}, {kindHarmonic, 5}, {kindStats, 7}, {kindToplexes, 5},
}

// writeSideMix is serve-write's block of 20 reads.
var writeSideMix = []mixEntry{
	{kindSCCInc, 8}, {kindSCC, 3}, {kindSLine, 3}, {kindSDistance, 2},
	{kindSPath, 2}, {kindToplexes, 1}, {kindStats, 1},
}

type datasetInfo struct {
	name     string
	numEdges int
}

// readSchedule draws blocks of reads for one client. Centrality is asked
// of the first dataset at s = harmonicS only: all-pairs searches at low s on
// the containment input take seconds and would wreck repeatability, and
// with one s they are one mode of the latency distribution. At 5 % of the
// requests (beside 2-3 % s-line misses) that mode holds p95 in its middle;
// at 3 % over two values of s, p95 sat on the edge between the light and
// the heavy requests (q94 35 ms, q95 62 ms) and would have flipped with
// the heavy share.
func readSchedule(rng *rand.Rand, mix []mixEntry, datasets []datasetInfo, coldShare float64, blocks int) []request {
	var out []request
	for b := 0; b < blocks; b++ {
		start := len(out)
		for _, m := range mix {
			for i := 0; i < m.count; i++ {
				ds := datasets[rng.Intn(len(datasets))]
				r := request{kind: m.kind, dataset: ds.name, s: hotS[rng.Intn(len(hotS))]}
				if rng.Float64() < coldShare {
					r.s = coldS[rng.Intn(len(coldS))]
				}
				if m.kind == kindHarmonic {
					ds = datasets[0]
					r.dataset, r.s = ds.name, harmonicS
				}
				r.src, r.dst = rng.Intn(ds.numEdges), rng.Intn(ds.numEdges)
				out = append(out, r)
			}
		}
		block := out[start:]
		rng.Shuffle(len(block), func(i, j int) { block[i], block[j] = block[j], block[i] })
	}
	return out
}

const harmonicS = 4

// scheduleBlocks is how many blocks are drawn per client: more than a run
// can consume (a client that does wraps around).
const scheduleBlocks = 300

// writer is serve-write's client A: it commits a batch, then reads three
// times, and so on. Its batches depend on the IDs the daemon assigned to
// earlier ones, so they are built as the run goes.
type writer struct {
	rng      *rand.Rand
	dataset  string
	numNodes int
	reads    []request
	nextRead int
	batch    int
	sinceW   int
	// inserted[k] holds the hyperedge IDs batch k added, until they are
	// removed again.
	inserted map[int][]uint32
	pending  [][]uint32 // member lists of the batch in flight
}

const (
	writeBatchAdds   = 25
	writeEdgeSize    = 6
	readsPerWrite    = 3
	removeEveryBatch = 10 // every 10th batch also removes the batches of the decade before
)

// next returns the writer's next request.
func (w *writer) next() request {
	if w.sinceW < readsPerWrite && w.batch > 0 {
		w.sinceW++
		r := w.reads[w.nextRead%len(w.reads)]
		w.nextRead++
		return r
	}
	w.sinceW = 0
	w.batch++
	r := request{kind: kindMutate, dataset: w.dataset}
	w.pending = w.pending[:0]
	for i := 0; i < writeBatchAdds; i++ {
		members := make([]uint32, 0, writeEdgeSize)
		for len(members) < writeEdgeSize {
			if v := uint32(w.rng.Intn(w.numNodes)); !slices.Contains(members, v) {
				members = append(members, v)
			}
		}
		w.pending = append(w.pending, members)
		r.ops = append(r.ops, edgeOp{Op: "add", Members: members})
	}
	// Removing what was inserted one to two decades ago keeps the dataset's
	// size stationary, so a run's length does not change what it measures,
	// while nine commits in ten stay insert-only (the incremental paths).
	if w.batch%removeEveryBatch == 0 {
		for k := w.batch - 2*removeEveryBatch + 1; k <= w.batch-removeEveryBatch; k++ {
			for _, id := range w.inserted[k] {
				r.ops = append(r.ops, edgeOp{Op: "remove", ID: id})
			}
			delete(w.inserted, k)
		}
	}
	return r
}

// ---- set-up ----

// servedDataset is one dataset of a serve workload.
type servedDataset struct {
	name  string
	input func(rng *rand.Rand) incidence
}

// serveSetup is one complete set-up: seeded inputs saved as snapshots into
// a fresh data directory, the daemon started on it, its hot keys warmed.
type serveSetup struct {
	incs    []incidence
	dataDir string
	d       *daemon
}

// setUpServe generates the inputs, saves them as .nwhyb snapshots (text
// file, LoadFile, SaveSnapshot — the facade's own path), starts the daemon
// and warms it: every hot s-line key and the toplex cover of each dataset,
// so the measured phase starts from the steady state a long-lived server is
// in. eng loads the files; the daemon has its own engine.
func setUpServe(eng *engine, bin, dir string, seed int64, datasets []servedDataset) (*serveSetup, error) {
	su := &serveSetup{dataDir: filepath.Join(dir, "data")}
	if err := os.MkdirAll(su.dataDir, 0o755); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	for _, ds := range datasets {
		inc := ds.input(rng)
		su.incs = append(su.incs, inc)
		mtx := filepath.Join(dir, ds.name+".mtx")
		if _, err := writeMTX(mtx, inc); err != nil {
			return nil, err
		}
		g, err := loadFile(mtx, eng)
		if err != nil {
			return nil, err
		}
		if err := saveSnapshot(g, filepath.Join(su.dataDir, ds.name+snapshotExt)); err != nil {
			return nil, err
		}
		if err := os.Remove(mtx); err != nil {
			return nil, err
		}
	}
	d, err := startDaemon(bin, su.dataDir, filepath.Join(dir, "nwhyd.log"))
	if err != nil {
		return nil, err
	}
	su.d = d
	c := newClient(d.base)
	for _, ds := range datasets {
		warm := []request{{kind: kindToplexes, dataset: ds.name}}
		for _, s := range hotS {
			warm = append(warm, request{kind: kindSLine, dataset: ds.name, s: s})
		}
		for _, r := range warm {
			if rep := c.do(r); rep.err != nil || rep.status != http.StatusOK {
				d.close()
				return nil, fmt.Errorf("warming %s %s s=%d: status %d, %v", kindNames[r.kind], r.dataset, r.s, rep.status, rep.err)
			}
		}
	}
	return su, nil
}

func (su *serveSetup) close() {
	su.d.close()
	_ = os.RemoveAll(su.dataDir) // the caller removes the whole work directory anyway
}

// repeatSetUp sets up cfg.setups times — each from nothing, each torn down
// before the next, the reference kernel twice before each and after the last — and
// returns the last one running, with every set-up's duration and daemon
// start time.
func repeatSetUp(eng *engine, bin string, cfg runConfig, datasets []servedDataset, cal *calibrator) (su *serveSetup, setupS, startMs []float64, err error) {
	for k := 0; k < cfg.setups; k++ {
		if su != nil {
			su.close()
		}
		cal.sample()
		cal.sample()
		t0 := time.Now()
		su, err = setUpServe(eng, bin, filepath.Join(cfg.workDir, fmt.Sprintf("setup%d", k)), cfg.seed, datasets)
		if err != nil {
			return nil, nil, nil, err
		}
		setupS, startMs = append(setupS, time.Since(t0).Seconds()), append(startMs, su.d.startMs)
	}
	cal.sample()
	cal.sample()
	return su, setupS, startMs, nil
}

// ---- the measured phase ----

// loadResult is what the closed-loop phase observed.
type loadResult struct {
	replies [serveClients][]reply
	wall    time.Duration
	cpu     time.Duration // the daemon's CPU time over the phase
	rssMB   float64       // the daemon's peak resident set
}

// driveSegment is how long the clients run between two samplings of the
// reference kernel. The daemon idles while the kernel runs; a segment is
// long enough that the requests still in flight at its end (the clients
// finish them before pausing) cost a percent or two of it.
const driveSegment = 1500 * time.Millisecond

// drive runs the closed loop: each client sends its next request when the
// previous reply has arrived, until the time is used up. cal samples the
// reference kernel twice before every segment and after the last.
func drive(d *daemon, budget time.Duration, next [serveClients]func() request, observe [serveClients]func(reply), cal *calibrator, out *runResult) (*loadResult, error) {
	res := &loadResult{}
	clients := [serveClients]*client{}
	for i := range clients {
		clients[i] = newClient(d.base)
	}
	cpu0, err := procCPU(d.cmd.Process.Pid)
	if err != nil {
		return nil, err
	}
	clientEng := newEngine(serveClients)
	defer closeEngine(clientEng)
	for res.wall < budget {
		cal.sample()
		cal.sample()
		t0 := time.Now()
		deadline := t0.Add(min(driveSegment, budget-res.wall))
		runConcurrently(clientEng, serveClients, func(i int) {
			for time.Now().Before(deadline) {
				rep := clients[i].do(next[i]())
				if observe[i] != nil {
					observe[i](rep)
				}
				res.replies[i] = append(res.replies[i], rep)
			}
		})
		res.wall += time.Since(t0)
	}
	cal.sample()
	cal.sample()
	cpu1, err := procCPU(d.cmd.Process.Pid)
	if err != nil {
		return nil, err
	}
	res.cpu = cpu1 - cpu0
	res.rssMB, err = peakRSSMB(d.cmd.Process.Pid)
	res.countFailures(out)
	return res, err
}

// latencies returns the durations in ms of the ok replies of the given
// kinds (all kinds when none is given).
func (l *loadResult) latencies(kinds ...reqKind) []float64 {
	var out []float64
	for _, reps := range l.replies {
		for _, rep := range reps {
			if rep.err == nil && rep.status == http.StatusOK && (len(kinds) == 0 || slices.Contains(kinds, rep.req.kind)) {
				out = append(out, ms(rep.dur))
			}
		}
	}
	return out
}

// countFailures counts every reply as attempted and those that are errors or
// not 200 — refused, timed out and failed requests alike — as failed.
func (l *loadResult) countFailures(res *runResult) {
	for c, reps := range l.replies {
		for i, rep := range reps {
			res.Attempted++
			if rep.err != nil || rep.status != http.StatusOK {
				res.fail("client %d request %d (%s): status %d, %v, %s", c, i, kindNames[rep.req.kind], rep.status, rep.err, bytes.TrimSpace(rep.body))
			}
		}
	}
}

// serveMetrics fills the end-to-end metrics every serve workload shares.
func (l *loadResult) serveMetrics(res *runResult, cal *calibrator) error {
	all := l.latencies()
	n := len(all)
	if n == 0 {
		return nil // every request failed: the run is reported as incorrect
	}
	if n < minServeSamples {
		return fmt.Errorf("bench: %d requests completed, p%d needs %d: raise -seconds", n, serveTailPercentile, minServeSamples)
	}
	res.calMs = cal.medianMs()
	res.setRate("ops_per_s", float64(n)/l.wall.Seconds(), n, cal)
	res.setTime("latency_ms", percentile(sortedCopy(all), serveTailPercentile), n, cal)
	if scc := l.latencies(kindSCC, kindSCCLabels); len(scc) > 0 {
		res.setTime("cc_ms_p50", median(scc), len(scc), cal)
	}
	return nil
}

// liveLayerMetrics reads the daemon's own /metrics after the run.
func liveLayerMetrics(d *daemon, l *loadResult, startMs []float64, res *runResult) error {
	var m metricsResponse
	if err := newClient(d.base).get(pathMetrics, &m); err != nil {
		return err
	}
	set := func(name string, v float64, n int) { res.Layer[name] = sample{v, n} }
	if lookups := m.Cache.Hits + m.Cache.Misses; lookups > 0 {
		set("server.cache_hit_ratio", float64(m.Cache.Hits)/float64(lookups), int(lookups))
	}
	set("server.cache_evictions", float64(m.Cache.Evictions), 1)
	set("server.cache_waits", float64(m.Cache.Waits), 1)
	set("server.admission_rejected", float64(m.Admission.Rejected), 1)
	set("server.admission_timed_out", float64(m.Admission.TimedOut), 1)
	var queueMs float64
	var arrivals int64
	for _, e := range m.Endpoints {
		queueMs += e.MeanQueueMs * float64(e.Count+e.Rejected)
		arrivals += e.Count + e.Rejected
	}
	if arrivals > 0 {
		set("server.queue_ms_mean", queueMs/float64(arrivals), int(arrivals))
	}
	set("nwhyd.warm_start_ms", median(startMs), len(startMs))
	set("nwhyd.peak_rss_mb", l.rssMB, 1)
	all := sortedCopy(l.latencies())
	if len(all) > 0 {
		set("nwhyd.cpu_ms_per_req", ms(l.cpu)/float64(len(all)), len(all))
		set("nwhyd.req_ms_p99", percentile(all, 99), len(all))
	}
	if writes := l.latencies(kindMutate); len(writes) > 0 {
		set("nwhyd.write_ms_p50", median(writes), len(writes))
	}
	return nil
}

// ---- the two serve workloads ----

// serveCase is what differs between the two serve workloads: the datasets
// served, and who the two clients are and how their replies are checked.
type serveCase struct {
	datasets []servedDataset
	sizes    map[string]any
	// load drives the measured phase against the running set-up and checks
	// its replies into res. It also returns what the traced pass replays:
	// a read schedule or a fresh writer.
	load func(cfg runConfig, su *serveSetup, cal *calibrator, res *runResult) (*loadResult, []request, *writer, error)
}

const (
	commSize    = "Community 6500 edges 1000 nodes mean 7 size-skew 1.6 member-skew 0.5"
	containSize = "Containment 1200 base 8000 nodes size 24 subs 7 member-skew 0.45"
)

func runServeRead(cfg runConfig) (*runResult, error) {
	return runServe(cfg, serveCase{
		datasets: []servedDataset{{"comm", commInput}, {"contain", containInput}},
		sizes: map[string]any{
			"comm": commSize, "contain": containSize,
			"clients": serveClients, "mix_block": 100, "hot_s": hotS, "cold_s": coldS, "cold_share": 0.1,
		},
		load: loadReadOnly,
	})
}

func runServeWrite(cfg runConfig) (*runResult, error) {
	return runServe(cfg, serveCase{
		datasets: []servedDataset{{"comm", commInput}},
		sizes: map[string]any{
			"comm":    commSize,
			"clients": serveClients, "batch_adds": writeBatchAdds, "edge_size": writeEdgeSize,
			"reads_per_write": readsPerWrite, "remove_every": removeEveryBatch, "read_block": 20,
		},
		load: loadWithWriter,
	})
}

// runServe runs one serve workload: build the daemon, set up, the measured
// closed loop and, when tracing, the daemon's own counters and the
// in-process replay.
func runServe(cfg runConfig, c serveCase) (*runResult, error) {
	res := &runResult{E2E: map[string]sample{}, Raw: map[string]float64{}, Sizes: c.sizes}
	res.Sizes["daemon_flags"] = strings.Join(daemonArgs("<dir>"), " ")
	eng := newEngine(engineWorkers)
	defer closeEngine(eng)
	bin, err := buildDaemon(cfg.workDir)
	if err != nil {
		return nil, err
	}
	setupCal := newCalibrator(eng)
	su, setupS, startMs, err := repeatSetUp(eng, bin, cfg, c.datasets, setupCal)
	if err != nil {
		return nil, err
	}
	defer su.close()
	res.setTime("setup_s", median(setupS), len(setupS), setupCal)
	cal := setupCal.fresh()
	load, sched, w, err := c.load(cfg, su, cal, res)
	if err != nil {
		return nil, err
	}
	if err := load.serveMetrics(res, cal); err != nil {
		return nil, err
	}
	if cfg.trace {
		res.Layer = map[string]sample{"bench.calibration_ms": {res.calMs, len(cal.samples)}}
		if err := liveLayerMetrics(su.d, load, startMs, res); err != nil {
			return nil, err
		}
		if err := tracedServe(eng, su, c.datasets, sched, w, load, res); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// loadReadOnly is serve-read's measured phase: two readers on seeded
// schedules, every reply checked against the oracle.
func loadReadOnly(cfg runConfig, su *serveSetup, cal *calibrator, res *runResult) (*loadResult, []request, *writer, error) {
	infos := []datasetInfo{{"comm", len(su.incs[0].edges)}, {"contain", len(su.incs[1].edges)}}
	var schedules [serveClients][]request
	var next [serveClients]func() request
	for i := range schedules {
		schedules[i] = readSchedule(rand.New(rand.NewSource(cfg.seed*7919+int64(i))), readMix, infos, 0.1, scheduleBlocks)
		next[i] = cycle(schedules[i])
	}
	load, err := drive(su.d, cfg.measuredPhase(), next, [serveClients]func(reply){}, cal, res)
	if err != nil {
		return nil, nil, nil, err
	}
	oracles := map[string]*servedOracle{"comm": newServedOracle(su.incs[0]), "contain": newServedOracle(su.incs[1])}
	for c, reps := range load.replies {
		for i, rep := range reps {
			if rep.err == nil && rep.status == http.StatusOK {
				if why := oracles[rep.req.dataset].check(rep); why != "" {
					res.fail("client %d request %d (%s %s s=%d): %s", c, i, kindNames[rep.req.kind], rep.req.dataset, rep.req.s, why)
				}
			}
		}
	}
	return load, schedules[0], nil, nil
}

// loadWithWriter is serve-write's measured phase: client A writes and
// reads, client B reads; acknowledged batches are mirrored and the final
// state is checked against the oracle on the mirror.
func loadWithWriter(cfg runConfig, su *serveSetup, cal *calibrator, res *runResult) (*loadResult, []request, *writer, error) {
	base := su.incs[0]
	infos := []datasetInfo{{"comm", len(base.edges)}} // queries name base hyperedges only: those are never removed
	newWriter := func() *writer {
		return &writer{
			rng: rand.New(rand.NewSource(cfg.seed * 104729)), dataset: "comm", numNodes: base.numNodes,
			reads:    readSchedule(rand.New(rand.NewSource(cfg.seed*7919)), writeSideMix, infos, 0, scheduleBlocks),
			inserted: map[int][]uint32{},
		}
	}
	w := newWriter()
	mirror := newMirror(base)
	reader := readSchedule(rand.New(rand.NewSource(cfg.seed*7919+1)), writeSideMix, infos, 0, scheduleBlocks)
	// The writer learns the IDs of its inserts from each reply, and the
	// mirror applies what the daemon acknowledged.
	observe := [serveClients]func(reply){func(rep reply) {
		if rep.req.kind == kindMutate {
			if why := mirror.apply(w, rep); why != "" {
				res.fail("batch %d: %s", w.batch, why)
			}
		}
	}}
	load, err := drive(su.d, cfg.measuredPhase(), [serveClients]func() request{w.next, cycle(reader)}, observe, cal, res)
	if err != nil {
		return nil, nil, nil, err
	}
	mirror.finalCheck(newClient(su.d.base), res)
	return load, nil, newWriter(), nil
}

// cycle walks a schedule, starting over should a run outlast it.
func cycle(sched []request) func() request {
	pos := 0
	return func() request { pos++; return sched[(pos-1)%len(sched)] }
}
