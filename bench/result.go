package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"runtime"
	"strings"
)

// environment is recorded in every result file, so a later reader can tell
// whether two files are comparable.
type environment struct {
	BenchVersion  string `json:"bench_version"`
	GitCommit     string `json:"git_commit"`
	GoVersion     string `json:"go_version"`
	NumCPU        int    `json:"nproc"`
	GOMAXPROCS    int    `json:"gomaxprocs"`
	EngineWorkers int    `json:"engine_workers"`
	Seed          int64  `json:"seed"`
	RunSeconds    int    `json:"run_seconds"`
	Runs          int    `json:"runs"`
}

func currentEnvironment(seed int64, seconds, runs int) environment {
	commit := "unknown"
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	return environment{
		BenchVersion: benchVersion, GitCommit: commit, GoVersion: runtime.Version(),
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), EngineWorkers: engineWorkers,
		Seed: seed, RunSeconds: seconds, Runs: runs,
	}
}

// metricResult is one metric of one workload in a result file: the median
// over the file's runs, each run's value, their spread (see spread) and,
// for end-to-end metrics, each run's value as measured, before calibration.
type metricResult struct {
	Value      float64   `json:"value"`
	Unit       string    `json:"unit"`
	Samples    int       `json:"samples"`
	Runs       []float64 `json:"runs,omitempty"`
	AsMeasured []float64 `json:"as_measured,omitempty"`
	Spread     *float64  `json:"spread,omitempty"` // absent with a single run: unknown
}

type workloadResult struct {
	Attempted int                     `json:"attempted"`
	Failed    int                     `json:"failed"`
	FailRatio float64                 `json:"fail_ratio"`
	Sizes     map[string]any          `json:"sizes"`
	E2E       map[string]metricResult `json:"end_to_end"`
	Layer     map[string]metricResult `json:"per_layer,omitempty"`
	Shares    map[string]float64      `json:"layer_self_time_shares,omitempty"`
}

type resultFile struct {
	Env       environment                `json:"environment"`
	Workloads map[string]*workloadResult `json:"workloads"`
}

// fold merges the runs of one workload into its entry of a result file.
func fold(defs []metricDef, runs []map[string]sample, raws []map[string]float64) map[string]metricResult {
	out := map[string]metricResult{}
	for _, def := range defs {
		var values, measured []float64
		samples := 0
		for i, r := range runs {
			if s, ok := r[def.Name]; ok {
				values = append(values, s.Value)
				samples += s.N
				if raws != nil {
					measured = append(measured, raws[i][def.Name])
				}
			}
		}
		if len(values) == 0 {
			continue
		}
		m := metricResult{Value: median(values), Unit: def.Unit, Samples: samples, Runs: values, AsMeasured: measured}
		if sp := spread(values); !math.IsNaN(sp) {
			m.Spread = &sp
		}
		out[def.Name] = m
	}
	return out
}

func readResultFile(path string) (*resultFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

func writeJSONFile(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// Verdicts of one workload × metric comparison.
const (
	verdictOK         = "ok"
	verdictRegressed  = "regressed"
	verdictImproved   = "improved"
	verdictUnresolved = "unresolved"
)

// verdict judges new against old for one metric: regressed when new is
// worse than old by more than the bound, improved when better by more than
// it, and unresolved when either file's own run-to-run spread exceeds the
// bound — then a difference of that size proves nothing either way.
func verdict(def metricDef, old, new metricResult) string {
	if (old.Spread != nil && *old.Spread > def.Bound) || (new.Spread != nil && *new.Spread > def.Bound) {
		return verdictUnresolved
	}
	change := (new.Value - old.Value) / old.Value
	if def.Better == "higher" {
		change = -change
	}
	switch {
	case change > def.Bound:
		return verdictRegressed
	case change < -def.Bound:
		return verdictImproved
	default:
		return verdictOK
	}
}

// compareFiles prints, per workload and end-to-end metric, old, new, their
// ratio (base: old), the bound and a verdict. It reports whether anything
// regressed or failed more often than before.
func compareFiles(w io.Writer, old, new *resultFile) (regressed bool) {
	if old.Env.BenchVersion != new.Env.BenchVersion {
		fmt.Fprintf(w, "warning: benchmark versions differ (%s vs %s): the files are not comparable\n", old.Env.BenchVersion, new.Env.BenchVersion)
	}
	fmt.Fprintf(w, "%-16s %-15s %12s %12s %9s %6s  %s\n", "workload", "metric", "old", "new", "new/old", "bound", "verdict")
	for _, wl := range workloads {
		o, n := old.Workloads[wl.name], new.Workloads[wl.name]
		if o == nil || n == nil {
			continue
		}
		for _, def := range endToEnd {
			om, ok1 := o.E2E[def.Name]
			nm, ok2 := n.E2E[def.Name]
			if !ok1 || !ok2 {
				continue
			}
			v := verdict(def, om, nm)
			regressed = regressed || v == verdictRegressed
			fmt.Fprintf(w, "%-16s %-15s %12.4f %12.4f %9.4f %5.0f%%  %s\n", wl.name, def.Name, om.Value, nm.Value, nm.Value/om.Value, def.Bound*100, v)
		}
		v := verdictOK
		if n.FailRatio > o.FailRatio {
			v, regressed = verdictRegressed, true
		}
		fmt.Fprintf(w, "%-16s %-15s %12.6f %12.6f %9s %6s  %s\n", wl.name, "fail_ratio", o.FailRatio, n.FailRatio, "-", "0%", v)
	}
	return regressed
}
