// Command bench is the one end-to-end benchmark of NWHy-Go. It drives the
// system only from outside — the paper-shaped nwhy facade for batch
// pipelines, a real nwhyd child process over a loopback socket for serving —
// checks every output against its own serial oracle, and in a separate
// traced pass times the calls into each layer to attribute the wall time.
// BENCHMARK.json at the repository root declares it; README.md in this
// directory defines every workload and metric.
//
//	go run ./bench                                   all workloads, seed 1, both passes
//	go run ./bench -workload serve-read -seed 7      one workload, end-to-end pass
//	go run ./bench -workload batch-skew -trace 1     one workload, traced pass
//	go run ./bench -compare old.json new.json        judge new against old
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

// defaultSeconds is run_seconds of BENCHMARK.json.
const defaultSeconds = 15

// setupRepeats is how many times a run sets up; setup_s is their median.
const setupRepeats = 5

func main() { os.Exit(realMain()) }

func realMain() int {
	var (
		workloadName = flag.String("workload", "", "run one workload (default: all five, both passes)")
		seed         = flag.Int64("seed", 1, "seed of the relabeling, the queries and the request schedules")
		seconds      = flag.Int("seconds", defaultSeconds, "how long the measured phase of a run lasts")
		trace        = flag.Int("trace", 0, "1: run the traced pass and report the per-layer metrics")
		compare      = flag.Bool("compare", false, "compare two result files: -compare old.json new.json")
		runs         = flag.Int("runs", 1, "all-workloads mode: end-to-end runs per workload (their spread is recorded)")
	)
	flag.Parse()
	if *compare {
		return compareMain(flag.Args())
	}
	if *seconds < 1 || *runs < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "bench: -seconds and -runs must be at least 1, -trace 0 or 1")
		return 2
	}

	// Everything a run writes lives under one directory inside the
	// checkout, removed on every way out.
	workDir, err := makeWorkDir()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	defer os.RemoveAll(workDir)

	if *workloadName != "" {
		return driverMain(*workloadName, *seed, *seconds, *trace == 1, workDir)
	}
	return allMain(*seed, *seconds, *runs, workDir)
}

func makeWorkDir() (string, error) {
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(".bench_build", "bench-")
}

// runOnce runs one workload once in a fresh sub-directory of workDir.
func runOnce(w workload, seed int64, seconds int, trace bool, workDir string) (*runResult, error) {
	dir, err := os.MkdirTemp(workDir, w.name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	cfg := runConfig{seed: seed, seconds: float64(seconds), trace: trace, setups: setupRepeats, workDir: dir}
	if trace {
		cfg.setups = 1 // set-up time is an end-to-end metric; the traced pass does not report it
	}
	res, err := w.run(cfg)
	if err != nil {
		return nil, err
	}
	return res, checkRegistered(res)
}

// driverMain is the contract of BENCHMARK.json: one workload, one pass, and
// as the last line of standard output one JSON object.
func driverMain(name string, seed int64, seconds int, trace bool, workDir string) int {
	w, ok := workloadByName(name)
	if !ok {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", name)
		return 2
	}
	res, err := runOnce(w, seed, seconds, trace, workDir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	defs, got := endToEnd, res.E2E
	if trace {
		defs, got = perLayer, res.Layer
	}
	printMetrics(name, defs, got, res)
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.Failed == 0 && res.Attempted > 0, max(res.Attempted, 1), res.Failed, map[string]value{}}
	for _, def := range defs {
		s, ok := got[def.Name]
		if !ok && !trace {
			// An end-to-end metric is missing only when no operation
			// succeeded; the run is wrong, not merely slow.
			line.Correct = false
		}
		line.Metrics[def.Name] = value{s.Value, def.Unit}
	}
	data, err := json.Marshal(line)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	fmt.Println(string(data))
	return 0
}

// printMetrics prints every metric by name with its unit and sample count.
func printMetrics(name string, defs []metricDef, got map[string]sample, res *runResult) {
	fmt.Printf("== %s: %d attempted, %d failed\n", name, res.Attempted, res.Failed)
	for _, m := range res.Mismatches {
		fmt.Printf("   MISMATCH %s\n", m)
	}
	for _, def := range defs {
		s, ok := got[def.Name]
		if !ok {
			continue
		}
		fmt.Printf("   %-36s %14.4f %-6s (%d samples)", def.Name, s.Value, def.Unit, s.N)
		if raw, ok := res.Raw[def.Name]; ok && def.Bound > 0 {
			fmt.Printf("  as measured %.4f", raw)
		}
		fmt.Println()
	}
	if res.calMs > 0 {
		fmt.Printf("   reference kernel: median %.3f ms in the measured phase, %.1f ms at reference speed (calibrate.go)\n", res.calMs, calibrationRefMs)
	}
	if len(res.Shares) > 0 {
		layers := make([]string, 0, len(res.Shares))
		for l := range res.Shares {
			layers = append(layers, l)
		}
		sort.Slice(layers, func(i, j int) bool { return res.Shares[layers[i]] > res.Shares[layers[j]] })
		fmt.Print("   traced self time by layer:")
		for _, l := range layers {
			fmt.Printf(" %s %.1f%%", l, res.Shares[l]*100)
		}
		fmt.Println()
	}
}

// allMain runs all five workloads — runs end-to-end runs and one traced run
// each — prints every metric, writes the result and span files, and fails
// on any mismatch. The runs go round by round, every workload once per
// round, so that a workload's runs are spread over the whole recording and
// the spread recorded with them includes the host's drift over that time.
func allMain(seed int64, seconds, runs int, workDir string) int {
	resultsDir := filepath.Join("bench", "results")
	out := filepath.Join(resultsDir, fmt.Sprintf("seed%d.json", seed))
	if err := os.MkdirAll(resultsDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	file := resultFile{Env: currentEnvironment(seed, seconds, runs), Workloads: map[string]*workloadResult{}}
	e2eRuns, rawRuns := map[string][]map[string]sample{}, map[string][]map[string]float64{}
	for _, w := range workloads {
		file.Workloads[w.name] = &workloadResult{}
	}
	for round := 0; round < runs; round++ {
		for _, w := range workloads {
			res, err := runOnce(w, seed, seconds, false, workDir)
			if err != nil {
				fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
				return 1
			}
			printMetrics(w.name, endToEnd, res.E2E, res)
			e2eRuns[w.name], rawRuns[w.name] = append(e2eRuns[w.name], res.E2E), append(rawRuns[w.name], res.Raw)
			wr := file.Workloads[w.name]
			wr.Attempted, wr.Failed, wr.Sizes = wr.Attempted+res.Attempted, wr.Failed+res.Failed, res.Sizes
		}
	}
	failed := false
	for _, w := range workloads {
		res, err := runOnce(w, seed, seconds, true, workDir)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s (traced): %v\n", w.name, err)
			return 1
		}
		printMetrics(w.name+" (traced)", perLayer, res.Layer, res)
		wr := file.Workloads[w.name]
		wr.Attempted, wr.Failed = wr.Attempted+res.Attempted, wr.Failed+res.Failed
		wr.FailRatio = float64(wr.Failed) / float64(max(wr.Attempted, 1))
		wr.E2E, wr.Layer, wr.Shares = fold(endToEnd, e2eRuns[w.name], rawRuns[w.name]), fold(perLayer, []map[string]sample{res.Layer}, nil), res.Shares
		failed = failed || wr.Failed > 0
		spans := filepath.Join(resultsDir, fmt.Sprintf("spans-%s-seed%d.json", w.name, seed))
		if err := writeJSONFile(spans, res.spans); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
	}
	if err := writeJSONFile(out, file); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	fmt.Printf("results written to %s, spans to %s\n", out, resultsDir)
	if failed {
		fmt.Fprintln(os.Stderr, "bench: outputs differ from the oracle (see MISMATCH lines)")
		return 1
	}
	return 0
}

func compareMain(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: go run ./bench -compare old.json new.json")
		return 2
	}
	old, err := readResultFile(args[0])
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	new, err := readResultFile(args[1])
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	if compareFiles(os.Stdout, old, new) {
		return 1
	}
	return 0
}
