package main

import (
	"context"
	"encoding/json"
	"fmt"
	"path/filepath"
)

// ---- the traced pass: the same schedule against the in-process Server ----

const tracedRequests = 500

// tracedServe replays the first requests of one client's schedule, single
// client, against an in-process server.Server on the same snapshots, one
// span per Server call and one per JSON encode, then times the layers under
// the serving core directly.
func tracedServe(eng *engine, su *serveSetup, datasets []servedDataset, sched []request, w *writer, load *loadResult, res *runResult) error {
	ctx := context.Background()
	handles := map[string]*hyper{}
	rec := newRecorder()
	var first *coreHyper
	for i, ds := range datasets {
		path := filepath.Join(su.dataDir, ds.name+snapshotExt)
		g, err := loadFile(path, eng)
		if err != nil {
			return err
		}
		handles[ds.name] = g
		// The warm start, decomposed: what the daemon's set-up time is made of.
		var csr *csrMatrix
		var h *coreHyper
		rec.do("mmio.snapshot_load", func() { csr, err = mmioLoadSnapshot(eng, path) })
		if err != nil {
			return err
		}
		rec.do("sparse.csr_build", func() { h = sparseBuildFromCSR(csr) })
		rec.do("core.toplex_cover", func() { coreToplexCover(eng, h) })
		in := lineInputOf(h)
		var st *degreeStats
		rec.do("slinegraph.degree_stats", func() { st = lineDegreeStats(eng, in) })
		rec.do("slinegraph.construct_csr", func() { _, err = lineConstructCSR(eng, in, hotS[0], counterAuto, st) })
		if err != nil {
			return err
		}
		rec.do("slinegraph.scc_pruned", func() { _, err = lineSComponents(eng, in, hotS[0], true, st) })
		if err != nil {
			return err
		}
		if i == 0 {
			first = h
		}
	}
	srv, err := newInprocServer(eng, handles)
	if err != nil {
		return err
	}
	for name := range handles {
		for _, s := range hotS {
			if _, _, err := srv.call(ctx, request{kind: kindSLine, dataset: name, s: s}); err != nil {
				return err
			}
		}
	}
	var encodedBytes, encodes int
	for i := 0; i < tracedRequests; i++ {
		var r request
		if w != nil {
			r = w.next()
		} else {
			r = sched[i%len(sched)]
		}
		rec.nextOp()
		var out any
		var hit bool
		id := len(rec.spans)
		rec.do("server."+kindNames[r.kind], func() { out, hit, err = srv.call(ctx, r) })
		if err != nil {
			return fmt.Errorf("traced %s: %w", kindNames[r.kind], err)
		}
		switch r.kind {
		case kindSLine:
			rec.spans[id].Name = "server.sline_miss"
			if hit {
				rec.spans[id].Name = "server.sline_hit"
			}
		case kindSCCLabels:
			rec.spans[id].Name = "server.scc"
		case kindMutate:
			w.inserted[w.batch] = addedIDs(out)
		}
		rec.do("server.encode", func() {
			var b []byte
			b, err = json.Marshal(out)
			encodedBytes += len(b)
			encodes++
		})
		if err != nil {
			return err
		}
		res.Attempted++
	}
	if w != nil {
		if err := tracedMutation(ctx, eng, first, w, rec); err != nil {
			return err
		}
	}
	res.spans = rec.spans
	res.Shares = layerSelfShares(rec.spans)
	ns, calls := spanTotals(rec.spans)
	for name, n := range calls {
		res.Layer[name+"_ms"] = sample{float64(ns[name]) / 1e6 / float64(n), n}
	}
	res.Layer["server.encode_bytes"] = sample{float64(encodedBytes) / float64(encodes), encodes}
	if socket, inproc := load.latencies(kindStats), spanDurations(rec.spans, "server.stats"); len(socket) > 0 && len(inproc) > 0 {
		res.Layer["server.http_overhead_ms"] = sample{median(socket) - median(inproc), len(socket)}
	}
	return nil
}

// tracedMutation times the facade's mutation surface on its own handle:
// commit, the incremental s-components view, and the s-line graph refresh.
func tracedMutation(ctx context.Context, eng *engine, h *coreHyper, w *writer, rec *recorder) error {
	g := facadeWrap(h, eng)
	view := facadeIncrementalSCC(g, hotS[0])
	lg := facadeSLineGraph(g, hotS[0])
	if _, err := incrementalLabels(ctx, view); err != nil {
		return err
	}
	for batch := 0; batch < 10; batch++ {
		var adds [][]uint32
		for _, op := range w.next().ops {
			if op.Op == "add" {
				adds = append(adds, op.Members)
			}
		}
		for w.sinceW < readsPerWrite { // skip to the writer's next batch
			w.next()
		}
		var err error
		rec.do("nwhy.commit", func() { _, err = facadeCommit(ctx, g, adds, nil) })
		if err != nil {
			return err
		}
		rec.do("nwhy.incremental_scc", func() { _, err = incrementalLabels(ctx, view) })
		if err != nil {
			return err
		}
		rec.do("nwhy.refresh_sline", func() { lg, err = facadeRefreshSLine(ctx, g, lg) })
		if err != nil {
			return err
		}
	}
	return nil
}

// spanDurations returns the durations in ms of the spans with one name.
func spanDurations(spans []span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start)/1e6)
		}
	}
	return out
}
