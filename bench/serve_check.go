package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"slices"
)

// ---- the oracle's view of a served dataset ----

type servedOracle struct {
	hg    *oracleHG
	stats hyperStats
	tops  []uint32
	ov    []overlap // pairs sharing at least two hypernodes
	lines map[int]*oracleLine
	comps map[int][]uint32
	harm  map[int][]float64
	dist  []int32
}

func newServedOracle(inc incidence) *servedOracle {
	hg := newOracleHG(inc)
	return &servedOracle{
		hg: hg, stats: hg.stats(), tops: hg.toplexes(), ov: hg.overlaps(2),
		lines: map[int]*oracleLine{}, comps: map[int][]uint32{}, harm: map[int][]float64{},
		dist: make([]int32, len(hg.edges)),
	}
}

func (o *servedOracle) line(s int) *oracleLine {
	if o.lines[s] == nil {
		o.lines[s] = lineAt(len(o.hg.edges), o.ov, s)
	}
	return o.lines[s]
}

func (o *servedOracle) components(s int) []uint32 {
	if o.comps[s] == nil {
		o.comps[s] = o.line(s).components()
	}
	return o.comps[s]
}

func (o *servedOracle) harmonic(s int) []float64 {
	if o.harm[s] == nil {
		_, o.harm[s] = o.line(s).centralities()
	}
	return o.harm[s]
}

// summarize reduces labels to the component count and the largest size.
func summarize(labels []uint32) (count, largest int) {
	size := map[uint32]int{}
	for _, l := range labels {
		size[l]++
		largest = max(largest, size[l])
	}
	return len(size), largest
}

// check compares one reply to the oracle and returns what differs ("" when
// nothing does). Exact for counts, labels, distances and paths; 1e-9
// relative for centrality scores.
func (o *servedOracle) check(rep reply) string {
	r := rep.req
	decode := func(into any) string {
		if err := json.Unmarshal(rep.body, into); err != nil {
			return "body is not the expected JSON: " + err.Error()
		}
		return ""
	}
	switch r.kind {
	case kindStats:
		var got statsResponse
		if why := decode(&got); why != "" {
			return why
		}
		if !sameStats(hyperStats(got.Stats), o.stats) {
			return fmt.Sprintf("stats %+v, oracle %+v", got.Stats, o.stats)
		}
	case kindToplexes:
		var got toplexesResponse
		if why := decode(&got); why != "" {
			return why
		}
		if got.Count != len(o.tops) || !equalSlices(got.Toplexes, o.tops) {
			return fmt.Sprintf("%d toplexes, oracle %d (or the lists differ)", got.Count, len(o.tops))
		}
	case kindSLine:
		var got slineResponse
		if why := decode(&got); why != "" {
			return why
		}
		if exp := o.line(r.s); got.NumVertices != len(exp.adj) || got.NumEdges != exp.numEdges {
			return fmt.Sprintf("s-line graph %d vertices %d edges, oracle %d and %d", got.NumVertices, got.NumEdges, len(exp.adj), exp.numEdges)
		}
	case kindSCC, kindSCCLabels, kindSCCInc:
		var got sccResponse
		if why := decode(&got); why != "" {
			return why
		}
		exp := o.components(r.s)
		count, largest := summarize(exp)
		if got.NumComponents != count || got.LargestSize != largest {
			return fmt.Sprintf("%d components, largest %d; oracle %d and %d", got.NumComponents, got.LargestSize, count, largest)
		}
		if (r.kind == kindSCCLabels || r.labels) && !equalSlices(got.Labels, exp) {
			return "component labels differ from the oracle"
		}
	case kindSDistance:
		var got sdistanceResponse
		if why := decode(&got); why != "" {
			return why
		}
		o.line(r.s).bfs(r.src, o.dist, nil)
		if exp := o.dist[r.dst]; int32(got.Distance) != exp || got.Reachable != (exp >= 0) {
			return fmt.Sprintf("distance %v reachable %v, oracle %d", got.Distance, got.Reachable, exp)
		}
	case kindSPath:
		var got spathResponse
		if why := decode(&got); why != "" {
			return why
		}
		line := o.line(r.s)
		line.bfs(r.src, o.dist, nil)
		exp := o.dist[r.dst]
		if len(got.Path) != int(exp)+1 {
			return fmt.Sprintf("path of %d hyperedges, oracle distance %d", len(got.Path), exp)
		}
		if exp >= 0 && (got.Path[0] != uint32(r.src) || got.Path[exp] != uint32(r.dst)) {
			return "path does not run from src to dst"
		}
		for i := 1; i < len(got.Path); i++ {
			if !slices.Contains(line.adj[got.Path[i-1]], got.Path[i]) {
				return fmt.Sprintf("path step %d-%d is not an s-line edge", got.Path[i-1], got.Path[i])
			}
		}
	case kindHarmonic:
		var got centralityResponse
		if why := decode(&got); why != "" {
			return why
		}
		exp := o.harmonic(r.s)
		if !closeSlices(got.Scores, exp) {
			return "harmonic closeness differs from the oracle by more than 1e-9 relative"
		}
		if len(got.Top) != harmonicTop {
			return fmt.Sprintf("top list of %d entries, want %d", len(got.Top), harmonicTop)
		}
		sorted := sortedCopy(exp)
		for i, t := range got.Top {
			if !closeTo(t.Score, sorted[len(sorted)-1-i]) || !closeTo(t.Score, exp[t.ID]) {
				return "top list is not the ten highest scores"
			}
		}
	}
	return ""
}

// mirror is the benchmark's own copy of the mutated dataset: the base
// hyperedges plus every acknowledged insert, minus every acknowledged
// removal (a removed ID stays in the ID space as an empty hyperedge).
type mirror struct {
	numNodes int
	edges    [][]uint32
	epoch    uint64
}

func newMirror(base incidence) *mirror {
	return &mirror{numNodes: base.numNodes, edges: slices.Clone(base.edges)}
}

// apply folds one acknowledged batch into the mirror and the writer's
// bookkeeping; it returns what is wrong with the acknowledgement, if
// anything.
func (m *mirror) apply(w *writer, rep reply) string {
	if rep.err != nil || rep.status != http.StatusOK {
		return "" // already counted as a failed request
	}
	var got mutateResponse
	if err := json.Unmarshal(rep.body, &got); err != nil {
		return "body is not the expected JSON: " + err.Error()
	}
	removes := 0
	for _, op := range rep.req.ops {
		if op.Op == "remove" {
			removes++
			m.edges[op.ID] = nil
		}
	}
	if !got.Committed || len(got.Added) != len(w.pending) || got.Removed != removes {
		return fmt.Sprintf("acknowledged committed=%v added=%d removed=%d, sent %d adds %d removes", got.Committed, len(got.Added), got.Removed, len(w.pending), removes)
	}
	// Epochs must never go back; one writer committing every batch means
	// each goes up by exactly one.
	if got.Epoch != m.epoch+1 {
		return fmt.Sprintf("epoch %d after epoch %d", got.Epoch, m.epoch)
	}
	m.epoch = got.Epoch
	for i, id := range got.Added {
		for int(id) >= len(m.edges) {
			m.edges = append(m.edges, nil)
		}
		if m.edges[id] != nil {
			return fmt.Sprintf("insert was given ID %d, which is live", id)
		}
		m.edges[id] = w.pending[i]
	}
	w.inserted[w.batch] = got.Added
	return ""
}

// finalCheck compares the daemon's final state to the oracle on the
// mirrored hypergraph: /stats, /slinegraph edge counts, and /scc labels,
// plain and incremental, at s in {2,3,4}.
func (m *mirror) finalCheck(c *client, res *runResult) {
	o := newServedOracle(incidence{numNodes: m.numNodes, edges: m.edges})
	checks := []request{{kind: kindStats, dataset: "comm"}}
	for _, s := range hotS {
		checks = append(checks,
			request{kind: kindSLine, dataset: "comm", s: s},
			request{kind: kindSCCLabels, dataset: "comm", s: s},
			request{kind: kindSCCInc, dataset: "comm", s: s, labels: true})
	}
	for _, r := range checks {
		res.Attempted++
		rep := c.do(r)
		if rep.err != nil || rep.status != http.StatusOK {
			res.fail("final %s s=%d: status %d, %v", kindNames[r.kind], r.s, rep.status, rep.err)
		} else if why := o.check(rep); why != "" {
			res.fail("final %s s=%d at epoch %d: %s", kindNames[r.kind], r.s, m.epoch, why)
		}
	}
}
