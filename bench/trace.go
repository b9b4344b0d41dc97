package main

import (
	"sort"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around the
// call (tracing inside the program is a later change). Times are
// nanoseconds since the recorder started; Parent indexes the span that
// caused this one (-1 for a root); Op groups the spans of one operation.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Op     int    `json:"op_id"`
}

// recorder keeps spans in memory; they are written out when the benchmark
// ends. A nil recorder records nothing, so the same pipeline code serves
// the traced and the untraced pass. The traced pass is single-client, so
// the open-span stack needs no lock.
type recorder struct {
	t0    time.Time
	spans []span
	open  []int
	op    int
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// nextOp starts a new operation: spans recorded from now on carry its id.
func (r *recorder) nextOp() {
	if r != nil {
		r.op++
	}
}

// do times fn as a child of the innermost open span.
func (r *recorder) do(name string, fn func()) {
	if r == nil {
		fn()
		return
	}
	parent := -1
	if len(r.open) > 0 {
		parent = r.open[len(r.open)-1]
	}
	id := len(r.spans)
	r.spans = append(r.spans, span{Name: name, Parent: parent, Op: r.op})
	r.open = append(r.open, id)
	r.spans[id].Start = time.Since(r.t0).Nanoseconds()
	fn()
	r.spans[id].End = time.Since(r.t0).Nanoseconds()
	r.open = r.open[:len(r.open)-1]
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval covered by the union of its children, so overlapping
// children are not subtracted twice.
func selfTimes(spans []span) []int64 {
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	out := make([]int64, len(spans))
	for i, s := range spans {
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start < spans[kids[b]].Start })
		covered, reach := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(spans[k].Start, reach), min(spans[k].End, s.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		out[i] = (s.End - s.Start) - covered
	}
	return out
}

// layerOf maps a span name to its layer: the module name before the dot.
func layerOf(name string) string {
	for i := 0; i < len(name); i++ {
		if name[i] == '.' {
			return name[:i]
		}
	}
	return name
}

// spanTotals sums span durations and counts by name.
func spanTotals(spans []span) (ns map[string]int64, calls map[string]int) {
	ns, calls = map[string]int64{}, map[string]int{}
	for _, s := range spans {
		ns[s.Name] += s.End - s.Start
		calls[s.Name]++
	}
	return ns, calls
}

// layerSelfShares returns each layer's share of the total self time of all
// spans — the attribution of the traced wall time the README predictions
// are checked against.
func layerSelfShares(spans []span) map[string]float64 {
	self := selfTimes(spans)
	byLayer, total := map[string]int64{}, int64(0)
	for i, s := range spans {
		byLayer[layerOf(s.Name)] += self[i]
		total += self[i]
	}
	out := map[string]float64{}
	for l, v := range byLayer {
		if total > 0 {
			out[l] = float64(v) / float64(total)
		}
	}
	return out
}
