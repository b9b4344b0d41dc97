package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"slices"
	"time"

	"nwhy"
	"nwhy/internal/core"
	"nwhy/internal/gen"
)

// soverlapReport is the BENCH_soverlap.json schema: one entry per
// (dataset, s) with the full strategy x schedule sweep.
type soverlapReport struct {
	Scale   float64          `json:"scale"`
	Reps    int              `json:"reps"`
	Workers int              `json:"workers"`
	Results []soverlapResult `json:"results"`
}

type soverlapResult struct {
	Dataset   string          `json:"dataset"`
	NumEdges  int             `json:"num_edges"`
	NumNodes  int             `json:"num_nodes"`
	S         int             `json:"s"`
	LineEdges int             `json:"line_edges"`
	Sweep     []soverlapEntry `json:"sweep"`
	// Connectivity-intent prune sweep: s-connected-components timing at each
	// prune level, with every pruned labelling pinned bit-identical to the
	// unpruned baseline (PrunedLabelsEqual is the CI assertion).
	NumComponents     int                  `json:"num_components"`
	PruneSweep        []soverlapPruneEntry `json:"prune_sweep"`
	PrunedLabelsEqual bool                 `json:"pruned_labels_equal"`
}

type soverlapEntry struct {
	Strategy string `json:"strategy"`
	Schedule string `json:"schedule"`
	Nanos    int64  `json:"ns"`
}

type soverlapPruneEntry struct {
	Prune string `json:"prune"`
	Nanos int64  `json:"ns"`
}

// soverlapInputs are the sweep inputs: bipartite power-law hypergraphs at
// two skew exponents (mean edge degree ~6), where work-per-hyperedge varies
// enough for the schedule axis to matter, plus a containment-rich shape
// where most hyperedges nest inside a base toplex — the case toplex pruning
// targets.
func soverlapInputs(scale float64) []struct {
	name string
	h    *core.Hypergraph
} {
	ne, nv := int(20000*scale), int(15000*scale)
	return []struct {
		name string
		h    *core.Hypergraph
	}{
		{"powerlaw-1.6", gen.BipartitePowerLaw(ne, nv, 6*ne, 1.6, 42)},
		{"powerlaw-2.0", gen.BipartitePowerLaw(ne, nv, 6*ne, 2.0, 42)},
		{"containment", gen.Containment(gen.ContainmentConfig{
			NumBase: int(2400 * scale), NumNodes: int(16000 * scale),
			BaseSize: 24, SubsPerBase: 7, MemberSkew: 0.45, Seed: 43,
		})},
	}
}

// soverlap runs the kernel strategy/schedule sweep on skewed-degree inputs,
// prints a summary table, and writes the machine-readable report to outPath.
func soverlap(w io.Writer, scale float64, sList []int, reps int, outPath string) error {
	fmt.Fprintf(w, "== S-overlap kernel sweep: strategy x schedule (scale %.2f) ==\n", scale)
	strategies := []nwhy.Strategy{nwhy.StrategyAuto, nwhy.StrategyHashmap, nwhy.StrategyDense, nwhy.StrategyIntersection}
	schedules := []nwhy.Schedule{nwhy.ScheduleBlocked, nwhy.ScheduleCyclic, nwhy.ScheduleQueue}
	report := soverlapReport{Scale: scale, Reps: reps, Workers: runtime.GOMAXPROCS(0)}
	for _, in := range soverlapInputs(scale) {
		g := nwhy.Wrap(in.h)
		fmt.Fprintf(w, "-- %s (|E|=%d |V|=%d) --\n", in.name, g.NumEdges(), g.NumNodes())
		for _, s := range sList {
			res := soverlapResult{
				Dataset: in.name, NumEdges: g.NumEdges(), NumNodes: g.NumNodes(), S: s,
			}
			fmt.Fprintf(w, "%-6s", fmt.Sprintf("s=%d", s))
			for _, sched := range schedules {
				fmt.Fprintf(w, "%24s", sched)
			}
			fmt.Fprintln(w)
			for _, strat := range strategies {
				fmt.Fprintf(w, "  %-12s", strat)
				for _, sched := range schedules {
					o := nwhy.ConstructOptions{Strategy: strat, Schedule: sched}
					var lg *nwhy.SLineGraph
					d := measure(reps, func() { lg = g.SLineGraphWith(s, true, o) })
					res.LineEdges = lg.NumEdges()
					res.Sweep = append(res.Sweep, soverlapEntry{
						Strategy: strat.String(), Schedule: sched.String(), Nanos: d.Nanoseconds(),
					})
					fmt.Fprintf(w, "%24s", d.Round(time.Microsecond))
				}
				fmt.Fprintln(w)
			}
			// Connectivity-intent prune sweep: s-CC at each prune level, with
			// the unpruned run as the label baseline. PruneToplex warms the
			// facade's toplex cache on its first rep; min-of-reps then shows
			// the steady (warm-cache) cost at reps > 1.
			prunes := []nwhy.Prune{nwhy.PruneNone, nwhy.PruneDegree, nwhy.PruneConnectivity, nwhy.PruneToplex}
			var base []uint32
			res.PrunedLabelsEqual = true
			fmt.Fprintf(w, "  scc prune:")
			for _, p := range prunes {
				var labels []uint32
				d := measure(reps, func() { labels = g.SConnectedComponentsPruned(s, p) })
				if p == nwhy.PruneNone {
					base = labels
					distinct := map[uint32]bool{}
					for _, c := range labels {
						distinct[c] = true
					}
					res.NumComponents = len(distinct)
				} else if !slices.Equal(labels, base) {
					res.PrunedLabelsEqual = false
				}
				res.PruneSweep = append(res.PruneSweep, soverlapPruneEntry{Prune: p.String(), Nanos: d.Nanoseconds()})
				fmt.Fprintf(w, " %s=%s", p, d.Round(time.Microsecond))
			}
			fmt.Fprintf(w, " (labels_equal=%v)\n", res.PrunedLabelsEqual)
			report.Results = append(report.Results, res)
		}
	}
	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(outPath, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(w, "report written to %s\n\n", outPath)
	return nil
}
