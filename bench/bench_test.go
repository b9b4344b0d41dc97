package main

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"
)

func TestPercentileRule(t *testing.T) {
	for _, c := range []struct {
		n    int
		p    float64
		tail bool
	}{
		{9, 50, false}, {99, 50, false}, // only the median qualifies
		{100, 90, true}, {199, 90, true},
		{200, 95, true}, {999, 95, true},
		{1000, 99, true}, {9999, 99, true}, {10000, 99.9, true},
	} {
		if p, ok := highestPercentile(c.n); p != c.p || ok != c.tail {
			t.Errorf("highestPercentile(%d) = %v, %v; want %v, %v", c.n, p, ok, c.p, c.tail)
		}
	}
	s := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for p, want := range map[float64]float64{50: 5, 90: 9, 95: 10, 100: 10, 1: 1} {
		if got := percentile(s, p); got != want {
			t.Errorf("percentile(1..10, %v) = %v, want %v", p, got, want)
		}
	}
	// The rule is what fixes latency_ms at p95 for the serve workloads:
	// minServeSamples is the least count that qualifies it.
	if p, ok := highestPercentile(minServeSamples); !ok || p != serveTailPercentile {
		t.Errorf("%d samples qualify p%v, want p%d", minServeSamples, p, serveTailPercentile)
	}
	if p, _ := highestPercentile(minServeSamples - 1); p >= serveTailPercentile {
		t.Errorf("%d samples already qualify p%v", minServeSamples-1, p)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
}

// statistics.quantiles(range(1, 11), n=4) is [2.75, 5.5, 8.25] and
// statistics.quantiles([1, 2, 4, 8, 16], n=4) is [1.5, 4.0, 12.0].
func TestQuartilesMatchPython(t *testing.T) {
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v, %v; want 2.75, 8.25", q1, q3)
	}
	q1, q3 = quartiles([]float64{1, 2, 4, 8, 16})
	if q1 != 1.5 || q3 != 12 {
		t.Errorf("quartiles(1,2,4,8,16) = %v, %v; want 1.5, 12", q1, q3)
	}
	if sp := spread([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}); sp != 1 {
		t.Errorf("spread(1..10) = %v, want (8.25-2.75)/5.5 = 1", sp)
	}
	if sp := spread([]float64{7}); !math.IsNaN(sp) {
		t.Errorf("spread of one run = %v, want unknown", sp)
	}
	if sp := spread([]float64{9, 10, 11}); sp != 0.2 {
		t.Errorf("spread of three runs = %v, want their range over the median, 0.2", sp)
	}
}

func TestSelfTimeWithOverlappingChildren(t *testing.T) {
	spans := []span{
		{Name: "bench.pipeline", Start: 0, End: 100, Parent: -1},
		{Name: "a.x", Start: 10, End: 40, Parent: 0},
		{Name: "a.y", Start: 30, End: 60, Parent: 0}, // overlaps a.x by 10
		{Name: "b.z", Start: 70, End: 80, Parent: 0},
		{Name: "b.inner", Start: 72, End: 75, Parent: 3},
		{Name: "a.late", Start: 95, End: 120, Parent: 0}, // runs past its parent
	}
	want := []int64{100 - (30 + 20 + 10 + 5), 30, 30, 10 - 3, 3, 25}
	if got := selfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
	shares := layerSelfShares(spans)
	if got, want := shares["a"], float64(30+30+25)/float64(35+30+30+7+3+25); math.Abs(got-want) > 1e-12 {
		t.Errorf("share of layer a = %v, want %v", got, want)
	}
}

func TestRecorderNesting(t *testing.T) {
	var off *recorder
	ran := false
	off.do("x", func() { ran = true })
	off.nextOp()
	if !ran {
		t.Fatal("a nil recorder must still run the function")
	}
	rec := newRecorder()
	rec.nextOp()
	rec.do("outer", func() { rec.do("inner", func() {}) })
	rec.do("next", func() {})
	if len(rec.spans) != 3 || rec.spans[1].Parent != 0 || rec.spans[0].Parent != -1 || rec.spans[2].Parent != -1 || rec.spans[1].Op != 1 {
		t.Errorf("unexpected span tree: %+v", rec.spans)
	}
}

func TestScheduleDeterminism(t *testing.T) {
	infos := []datasetInfo{{"comm", 6500}, {"contain", 9600}}
	draw := func(seed int64) []request {
		return readSchedule(rand.New(rand.NewSource(seed)), readMix, infos, 0.1, 3)
	}
	a, b, c := draw(7), draw(7), draw(8)
	if !reflect.DeepEqual(a, b) {
		t.Error("the same seed gave different schedules")
	}
	if reflect.DeepEqual(a, c) {
		t.Error("different seeds gave the same schedule")
	}
	// Every block holds the exact mix, whatever the seed.
	for block := 0; block < 3; block++ {
		counts := map[reqKind]int{}
		for _, r := range c[block*100 : (block+1)*100] {
			counts[r.kind]++
			if r.kind == kindHarmonic && (r.dataset != "comm" || r.s != harmonicS) {
				t.Errorf("centrality request outside comm s=%d: %+v", harmonicS, r)
			}
		}
		for _, m := range readMix {
			if counts[m.kind] != m.count {
				t.Errorf("block %d holds %d %s requests, want %d", block, counts[m.kind], kindNames[m.kind], m.count)
			}
		}
	}
}

func TestWriterKeepsDatasetStationary(t *testing.T) {
	w := &writer{rng: rand.New(rand.NewSource(1)), dataset: "comm", numNodes: 100, reads: []request{{kind: kindStats}}, inserted: map[int][]uint32{}}
	nextID, live, writes := uint32(1000), 0, 0
	for i := 0; i < 400; i++ {
		r := w.next()
		if r.kind != kindMutate {
			continue
		}
		writes++
		var added []uint32
		for _, op := range r.ops {
			if op.Op == "add" {
				added = append(added, nextID)
				nextID++
				live++
			} else {
				live--
			}
		}
		w.inserted[w.batch] = added
		if live > 2*removeEveryBatch*writeBatchAdds {
			t.Fatalf("after batch %d, %d inserted hyperedges are live: the dataset grows without bound", w.batch, live)
		}
	}
	if writes != 100 {
		t.Errorf("%d writes in 400 requests, want one in four", writes)
	}
}

// sixEdges is the hypergraph the oracle is checked on by hand:
//
//	e0={0,1,2} e1={1,2,3} e2={2,3,4} e3={5,6} e4={5,6} e5={4}
//
// Overlaps: e0∩e1=2, e1∩e2=2, e3∩e4=2, e0∩e2=1, e2∩e5=1. At s=2 the line
// graph is the path 0-1-2 plus the edge 3-4; e5 is isolated.
var sixEdges = incidence{numNodes: 7, edges: [][]uint32{{2, 0, 1}, {1, 2, 3}, {4, 3, 2}, {5, 6}, {6, 5}, {4}}}

func TestOracleOnSixEdges(t *testing.T) {
	o := newOracleHG(sixEdges)
	if got, want := o.stats(), (hyperStats{NumNodes: 7, NumEdges: 6, AvgNodeDegree: 2, AvgEdgeDegree: 14.0 / 6, MaxNodeDegree: 3, MaxEdgeDegree: 3}); got != want {
		t.Errorf("stats = %+v, want %+v", got, want)
	}
	if got := len(o.overlaps(1)); got != 5 {
		t.Errorf("%d overlapping pairs, want 5", got)
	}
	line := lineAt(6, o.overlaps(2), 2)
	if line.numEdges != 3 {
		t.Errorf("%d s-line edges at s=2, want 3", line.numEdges)
	}
	if got, want := line.components(), []uint32{0, 0, 0, 3, 3, 5}; !reflect.DeepEqual(got, want) {
		t.Errorf("s-components = %v, want %v", got, want)
	}
	dist := make([]int32, 6)
	line.bfs(0, dist, nil)
	if want := []int32{0, 1, 2, -1, -1, -1}; !reflect.DeepEqual(dist, want) {
		t.Errorf("distances from e0 = %v, want %v", dist, want)
	}
	bc, harm := line.centralities()
	// Only e1 lies between two others (e0 and e2): 1 pair ÷ ((6-1)(6-2)).
	if want := []float64{0, 0.05, 0, 0, 0, 0}; !closeSlices(bc, want) {
		t.Errorf("betweenness = %v, want %v", bc, want)
	}
	if want := []float64{1.5 / 5, 2.0 / 5, 1.5 / 5, 1.0 / 5, 1.0 / 5, 0}; !closeSlices(harm, want) {
		t.Errorf("harmonic closeness = %v, want %v", harm, want)
	}
	ec, nc := o.bipartiteCC()
	if want := []uint32{0, 0, 0, 3, 3, 0}; !reflect.DeepEqual(ec, want) {
		t.Errorf("hyperedge components = %v, want %v", ec, want)
	}
	if want := []uint32{0, 0, 0, 0, 0, 3, 3}; !reflect.DeepEqual(nc, want) {
		t.Errorf("hypernode components = %v, want %v", nc, want)
	}
	el, nl := o.bipartiteBFS(0)
	if want := []int32{0, 2, 2, -1, -1, 4}; !reflect.DeepEqual(el, want) {
		t.Errorf("hyperedge levels from e0 = %v, want %v", el, want)
	}
	if want := []int32{1, 1, 1, 3, 3, -1, -1}; !reflect.DeepEqual(nl, want) {
		t.Errorf("hypernode levels from e0 = %v, want %v", nl, want)
	}
	// e4 duplicates e3 (the smaller ID stays), e5 lies inside e2.
	if got, want := o.toplexes(), []uint32{0, 1, 2, 3}; !reflect.DeepEqual(got, want) {
		t.Errorf("toplexes = %v, want %v", got, want)
	}
}

// The served oracle accepts the right replies and names what is wrong with
// the wrong ones.
func TestServedOracleChecksReplies(t *testing.T) {
	o := newServedOracle(sixEdges)
	for _, c := range []struct {
		req  request
		body string
		ok   bool
	}{
		{request{kind: kindSLine, s: 2}, `{"num_vertices":6,"num_edges":3}`, true},
		{request{kind: kindSLine, s: 2}, `{"num_vertices":6,"num_edges":4}`, false},
		{request{kind: kindSCCLabels, s: 2}, `{"num_components":3,"largest_size":3,"labels":[0,0,0,3,3,5]}`, true},
		{request{kind: kindSCCLabels, s: 2}, `{"num_components":3,"largest_size":3,"labels":[0,0,0,3,3,3]}`, false},
		{request{kind: kindSCC, s: 3}, `{"num_components":6,"largest_size":1}`, true},
		{request{kind: kindSDistance, s: 2, src: 0, dst: 2}, `{"distance":2,"reachable":true}`, true},
		{request{kind: kindSDistance, s: 2, src: 0, dst: 3}, `{"distance":-1,"reachable":false}`, true},
		{request{kind: kindSDistance, s: 2, src: 0, dst: 2}, `{"distance":1,"reachable":true}`, false},
		{request{kind: kindSPath, s: 2, src: 0, dst: 2}, `{"path":[0,1,2]}`, true},
		{request{kind: kindSPath, s: 2, src: 0, dst: 2}, `{"path":[0,3,2]}`, false},
		{request{kind: kindSPath, s: 2, src: 0, dst: 3}, `{"path":null}`, true},
		{request{kind: kindToplexes}, `{"count":4,"toplexes":[0,1,2,3]}`, true},
		{request{kind: kindToplexes}, `{"count":5,"toplexes":[0,1,2,3,4]}`, false},
		{request{kind: kindStats}, `{"stats":{"NumNodes":7,"NumEdges":6,"AvgNodeDegree":2,"AvgEdgeDegree":2.3333333333333335,"MaxNodeDegree":3,"MaxEdgeDegree":3}}`, true},
		{request{kind: kindStats}, `not json`, false},
	} {
		why := o.check(reply{req: c.req, body: []byte(c.body)})
		if (why == "") != c.ok {
			t.Errorf("%s %s: check said %q, want ok=%v", kindNames[c.req.kind], c.body, why, c.ok)
		}
	}
}

func TestRelabelKeepsStructure(t *testing.T) {
	base := genCommunity(200, 60, 5, 1.6, 0.5, structureSeed)
	a := relabel(base, rand.New(rand.NewSource(1)))
	b := relabel(base, rand.New(rand.NewSource(2)))
	if reflect.DeepEqual(a.edges, b.edges) {
		t.Error("different seeds gave the same relabeling")
	}
	shape := func(inc incidence) (int, int, int) {
		o := newOracleHG(inc)
		count, largest := summarize(lineAt(len(o.edges), o.overlaps(2), 2).components())
		return len(o.overlaps(2)), count, largest
	}
	p0, c0, l0 := shape(base)
	for _, inc := range []incidence{a, b} {
		if p, c, l := shape(inc); p != p0 || c != c0 || l != l0 {
			t.Errorf("relabeling changed the structure: %d pairs %d components largest %d, want %d %d %d", p, c, l, p0, c0, l0)
		}
	}
}

func result(values map[string][]float64) *workloadResult {
	wr := &workloadResult{Attempted: 100, E2E: map[string]metricResult{}}
	for name, runs := range values {
		m := metricResult{Value: median(runs), Runs: runs}
		if sp := spread(runs); !math.IsNaN(sp) {
			m.Spread = &sp
		}
		wr.E2E[name] = m
	}
	return wr
}

func TestCompareVerdicts(t *testing.T) {
	file := func(wr *workloadResult) *resultFile {
		return &resultFile{Env: environment{BenchVersion: benchVersion}, Workloads: map[string]*workloadResult{"batch-skew": wr}}
	}
	old := file(result(map[string][]float64{
		"latency_ms": {100}, "ops_per_s": {10}, "setup_s": {1, 1.01, 0.99, 1.02}, "cc_ms_p50": {5, 9, 5.1, 8.8},
	}))
	new := file(result(map[string][]float64{
		"latency_ms": {130}, // lower is better, bound 25 %: regressed
		"ops_per_s":  {13},  // higher is better: improved
		"setup_s":    {1.2}, // within 25 %
		"cc_ms_p50":  {5},   // old spread exceeds the bound
	}))
	want := map[string]string{"latency_ms": verdictRegressed, "ops_per_s": verdictImproved, "setup_s": verdictOK, "cc_ms_p50": verdictUnresolved}
	for _, def := range endToEnd {
		if w, ok := want[def.Name]; ok {
			if got := verdict(def, old.Workloads["batch-skew"].E2E[def.Name], new.Workloads["batch-skew"].E2E[def.Name]); got != w {
				t.Errorf("%s: verdict %s, want %s", def.Name, got, w)
			}
		}
	}
	var buf bytes.Buffer
	if !compareFiles(&buf, old, new) {
		t.Error("a regressed metric must fail the comparison")
	}
	for _, w := range []string{"latency_ms", "1.3000", "25%", verdictRegressed, verdictImproved, verdictUnresolved} {
		if !strings.Contains(buf.String(), w) {
			t.Errorf("comparison output lacks %q:\n%s", w, buf.String())
		}
	}
	buf.Reset()
	if compareFiles(&buf, old, old) {
		t.Errorf("a file compared to itself regressed:\n%s", buf.String())
	}
	worse := file(result(map[string][]float64{"latency_ms": {100}}))
	worse.Workloads["batch-skew"].FailRatio = 0.01
	if !compareFiles(&buf, old, worse) {
		t.Error("a higher fail_ratio must fail the comparison")
	}
}

// BENCHMARK.json must declare exactly what the code runs and prints.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var decl struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metricDef `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&decl); err != nil {
		t.Fatal(err)
	}
	if want := []string{"go", "run", "./bench"}; !reflect.DeepEqual(decl.Command, want) {
		t.Errorf("command = %v, want %v", decl.Command, want)
	}
	if want := []string{"bench"}; !reflect.DeepEqual(decl.Paths, want) {
		t.Errorf("paths = %v, want %v", decl.Paths, want)
	}
	if decl.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds = %d, the code's default is %d", decl.RunSeconds, defaultSeconds)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	checkName := func(n string) {
		if !name.MatchString(n) {
			t.Errorf("name %q is not made of at most 64 letters, digits, _ . -", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	if len(decl.Workloads) != len(workloads) {
		t.Fatalf("%d workloads declared, the code runs %d", len(decl.Workloads), len(workloads))
	}
	for i, w := range decl.Workloads {
		checkName(w.Name)
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d is declared as %q (%q), the code has %q (%q)", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	if !reflect.DeepEqual(decl.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs from the code:\n%+v\n%+v", decl.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(decl.PerLayer, perLayer) {
		t.Errorf("per_layer differs from the code:\n%+v\n%+v", decl.PerLayer, perLayer)
	}
	setup := false
	for _, m := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		checkName(m.Name)
		if !unit.MatchString(m.Unit) {
			t.Errorf("metric %s: bad unit %q", m.Name, m.Unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("metric %s: better = %q", m.Name, m.Better)
		}
		setup = setup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	for _, m := range endToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("metric %s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if !setup || len(endToEnd) > 16 || len(perLayer) > 128 {
		t.Error("need setup_s in s, at most 16 end-to-end and 128 per-layer metrics")
	}
}

// A metric the code reports but the registry lacks would silently vanish
// from the output; checkRegistered refuses it.
func TestUnregisteredMetricIsRefused(t *testing.T) {
	ok := &runResult{E2E: map[string]sample{"setup_s": {1, 1}}, Layer: map[string]sample{"graph.cc_ms": {1, 1}}}
	if err := checkRegistered(ok); err != nil {
		t.Errorf("registered metrics refused: %v", err)
	}
	bad := &runResult{Layer: map[string]sample{"graph.typo_ms": {1, 1}}}
	if err := checkRegistered(bad); err == nil {
		t.Error("an unregistered metric was accepted")
	}
}

// The two committed baselines were recorded on the same code, one after the
// other: the benchmark must call them equal on every metric, or it would
// fail later changes that change nothing.
func TestBaselinesAgree(t *testing.T) {
	old, err := readResultFile("baseline/seed1.json")
	if err != nil {
		t.Fatal(err)
	}
	new, err := readResultFile("baseline/seed2.json")
	if err != nil {
		t.Fatal(err)
	}
	if old.Env.BenchVersion != benchVersion || new.Env.BenchVersion != benchVersion {
		t.Errorf("baselines are of benchmark version %s and %s, the code is %s: record them again", old.Env.BenchVersion, new.Env.BenchVersion, benchVersion)
	}
	var buf bytes.Buffer
	regressed := compareFiles(&buf, old, new)
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	for _, line := range lines[1:] { // after the header
		if f := strings.Fields(line); f[len(f)-1] != verdictOK {
			t.Errorf("not ok: %s", line)
		}
	}
	if regressed {
		t.Error("seed2 compares as regressed against seed1")
	}
}
