package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"
	"time"

	"nwhy"
)

func TestMutateCommitsImmediatelyByDefault(t *testing.T) {
	s, _ := testServer(t, Config{})
	ctx := context.Background()

	out, err := s.Mutate(ctx, MutateRequest{
		Dataset: "tiny",
		Ops:     []EdgeOp{{Op: "add", Members: []uint32{4, 5}}},
	})
	if err != nil {
		t.Fatalf("Mutate: %v", err)
	}
	if !out.Committed || out.Pending != 0 || out.Epoch != 1 {
		t.Fatalf("result = %+v, want committed at epoch 1 with nothing pending", out)
	}
	if len(out.Added) != 1 || out.Added[0] != 5 {
		t.Fatalf("added = %v, want fresh ID 5", out.Added)
	}
	g, err := s.Registry().Get("tiny")
	if err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != 6 {
		t.Fatalf("NumEdges = %d after commit, want 6", g.NumEdges())
	}
	// The new edge {4,5} bridges the two 1-connected islands.
	scc, err := s.SComponents(ctx, SCCRequest{Dataset: "tiny", S: 1})
	if err != nil {
		t.Fatalf("SComponents: %v", err)
	}
	if scc.NumComponents != 1 {
		t.Fatalf("components after bridge = %d, want 1", scc.NumComponents)
	}
}

func TestMutateCompactionPolicyBatches(t *testing.T) {
	s, _ := testServer(t, Config{CompactEvery: 5})
	ctx := context.Background()

	out, err := s.Mutate(ctx, MutateRequest{
		Dataset: "tiny",
		Ops: []EdgeOp{
			{Op: "add", Members: []uint32{0, 7}},
			{Op: "remove", ID: 2},
		},
	})
	if err != nil {
		t.Fatalf("Mutate: %v", err)
	}
	if out.Committed || out.Pending != 2 || out.Epoch != 0 {
		t.Fatalf("result = %+v, want 2 staged ops and no commit", out)
	}
	if out.Removed != 1 {
		t.Fatalf("removed = %d, want 1", out.Removed)
	}
	// Staged ops are invisible to queries until compaction.
	g, err := s.Registry().Get("tiny")
	if err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != 5 || g.Epoch() != 0 {
		t.Fatalf("queries see %d edges at epoch %d, want the old snapshot (5, 0)", g.NumEdges(), g.Epoch())
	}
	if got := s.PendingOps("tiny"); got != 2 {
		t.Fatalf("PendingOps = %d, want 2", got)
	}

	cr, err := s.Compact(ctx, "tiny")
	if err != nil {
		t.Fatalf("Compact: %v", err)
	}
	if !cr.Committed || cr.Flushed != 2 || cr.Epoch != 1 {
		t.Fatalf("compact = %+v, want 2 ops flushed into epoch 1", cr)
	}
	if g.NumEdges() != 6 || len(g.Incidence(2)) != 0 {
		t.Fatalf("post-compact: %d edges, edge 2 = %v, want 6 with edge 2 removed", g.NumEdges(), g.Incidence(2))
	}
	// Nothing left to flush: compaction is a no-op.
	cr, err = s.Compact(ctx, "tiny")
	if err != nil {
		t.Fatalf("Compact (idle): %v", err)
	}
	if cr.Committed || cr.Epoch != 1 {
		t.Fatalf("idle compact = %+v, want no-op at epoch 1", cr)
	}

	// The fifth staged op reaches CompactEvery and commits on its own.
	for i := 0; i < 5; i++ {
		out, err = s.Mutate(ctx, MutateRequest{Dataset: "tiny", Ops: []EdgeOp{{Op: "add", Members: []uint32{uint32(i), 7}}}})
		if err != nil {
			t.Fatalf("Mutate %d: %v", i, err)
		}
	}
	if !out.Committed || out.Epoch != 2 || s.PendingOps("tiny") != 0 {
		t.Fatalf("result = %+v (pending %d), want the 5th op to trigger the commit", out, s.PendingOps("tiny"))
	}
}

func TestMutateBadOpDiscardsPending(t *testing.T) {
	s, _ := testServer(t, Config{CompactEvery: 10})
	ctx := context.Background()

	if _, err := s.Mutate(ctx, MutateRequest{Dataset: "tiny", Ops: []EdgeOp{{Op: "add", Members: []uint32{0, 1}}}}); err != nil {
		t.Fatalf("Mutate: %v", err)
	}
	// Removing a dead edge poisons (and discards) the whole staged batch.
	if _, err := s.Mutate(ctx, MutateRequest{Dataset: "tiny", Ops: []EdgeOp{{Op: "remove", ID: 99}}}); err == nil {
		t.Fatal("out-of-range remove should fail")
	}
	if got := s.PendingOps("tiny"); got != 0 {
		t.Fatalf("PendingOps = %d after failed op, want discarded batch", got)
	}
	if _, err := s.Mutate(ctx, MutateRequest{Dataset: "tiny", Ops: []EdgeOp{{Op: "grow"}}}); err == nil {
		t.Fatal("unknown op should fail")
	}
	cr, err := s.Compact(ctx, "tiny")
	if err != nil {
		t.Fatalf("Compact: %v", err)
	}
	if cr.Committed || cr.Epoch != 0 {
		t.Fatalf("compact = %+v, want nothing to flush and epoch 0", cr)
	}
}

// TestSLineCacheEpochKeyedInvalidation pins the serving behavior across a
// commit: it bumps the epoch in the cache key, so the next identical request
// misses and rebuilds, and the rebuilt pairs match a from-scratch
// construction on the mutated dataset.
func TestSLineCacheEpochKeyedInvalidation(t *testing.T) {
	s, _ := testServer(t, Config{})
	ctx := context.Background()
	req := SLineRequest{Dataset: "tiny", S: 1, Edges: true}

	first, err := s.SLine(ctx, req)
	if err != nil {
		t.Fatalf("SLine: %v", err)
	}
	if first.CacheHit || first.NumEdges != 3 {
		t.Fatalf("first = %+v, want cold construction with 3 line-graph edges", first)
	}

	if _, err := s.Mutate(ctx, MutateRequest{Dataset: "tiny", Ops: []EdgeOp{{Op: "add", Members: []uint32{4, 5}}}}); err != nil {
		t.Fatalf("Mutate: %v", err)
	}

	second, err := s.SLine(ctx, req)
	if err != nil {
		t.Fatalf("SLine after commit: %v", err)
	}
	if second.CacheHit {
		t.Fatal("request after a commit must miss the epoch-keyed cache")
	}
	if second.NumVertices != 6 || second.NumEdges != 5 {
		t.Fatalf("post-mutation shape = (%d,%d), want (6,5)", second.NumVertices, second.NumEdges)
	}

	// The served pairs must equal a from-scratch construction on the same
	// live sets.
	lg, _, _, err := s.slineGraph(ctx, req)
	if err != nil {
		t.Fatalf("slineGraph: %v", err)
	}
	sets := append(twoIslands(), []uint32{4, 5})
	want := nwhy.FromSets(sets, 8).SLineGraph(1, true)
	gp, wp := lg.Pairs(), want.Pairs()
	if len(gp) != len(wp) {
		t.Fatalf("pairs: %d vs rebuild %d", len(gp), len(wp))
	}
	for i := range gp {
		if gp[i] != wp[i] {
			t.Fatalf("pair %d: %v vs rebuild %v", i, gp[i], wp[i])
		}
	}

	third, err := s.SLine(ctx, req)
	if err != nil {
		t.Fatalf("SLine (repeat): %v", err)
	}
	if !third.CacheHit {
		t.Fatal("repeated post-mutation request must hit the new-epoch entry")
	}
}

// TestSCCIncrementalEndpoint: the default /scc computes once, repeats from
// memory, and absorbs an insert-only commit, all with the facade's labels.
func TestSCCIncrementalEndpoint(t *testing.T) {
	s, _ := testServer(t, Config{})
	ctx := context.Background()
	req := SCCRequest{Dataset: "tiny", S: 1, WithLabels: true}

	first, err := s.SComponents(ctx, req)
	if err != nil {
		t.Fatalf("SComponents: %v", err)
	}
	if first.Incremental || first.NumComponents != 2 {
		t.Fatalf("first = %+v, want a full compute finding 2 components", first)
	}
	second, err := s.SComponents(ctx, req)
	if err != nil {
		t.Fatalf("SComponents (repeat): %v", err)
	}
	if !second.Incremental || !slices.Equal(second.Labels, first.Labels) {
		t.Fatalf("repeat at the same epoch = %+v, want the first answer from memory", second)
	}

	// An insert-only commit is absorbed without a recompute, and the labels
	// match a direct recompute exactly.
	if _, err := s.Mutate(ctx, MutateRequest{Dataset: "tiny", Ops: []EdgeOp{{Op: "add", Members: []uint32{4, 5}}}}); err != nil {
		t.Fatalf("Mutate: %v", err)
	}
	third, err := s.SComponents(ctx, req)
	if err != nil {
		t.Fatalf("SComponents after insert: %v", err)
	}
	if !third.Incremental || third.NumComponents != 1 || third.Epoch != 1 {
		t.Fatalf("post-insert = %+v, want incremental absorption into 1 component at epoch 1", third)
	}
	checkSCCReply(t, s, third)
	if len(first.Labels) != 5 || first.Epoch != 0 {
		t.Fatalf("the epoch-0 reply changed under its reader: %+v", first)
	}
}

func TestSCCIncrementalSurvivesRegistrySwap(t *testing.T) {
	s, _ := testServer(t, Config{})
	ctx := context.Background()
	req := SCCRequest{Dataset: "tiny", S: 1, WithLabels: true}
	if _, err := s.SComponents(ctx, req); err != nil {
		t.Fatalf("SComponents: %v", err)
	}
	// Replace the dataset under the same name: the held view must rebuild
	// against the new handle, not serve the old dataset's components.
	s.Registry().Add("tiny", nwhy.FromSets([][]uint32{{0, 1}, {1, 2}, {3}}, 4).WithEngine(s.Engine()), "")
	out, err := s.SComponents(ctx, req)
	if err != nil {
		t.Fatalf("SComponents after swap: %v", err)
	}
	if out.Incremental || out.NumComponents != 2 {
		t.Fatalf("post-swap = %+v, want full recompute finding 2 components", out)
	}
	checkSCCReply(t, s, out)
}

func TestMetricsSeparateQueueWait(t *testing.T) {
	m := newMetrics()
	m.observe("x", 4*time.Millisecond, 10*time.Millisecond, nil)
	m.observeRejected("x", 2*time.Millisecond)
	snaps := m.snapshot()
	if len(snaps) != 1 {
		t.Fatalf("snapshots = %+v", snaps)
	}
	snap := snaps[0]
	if snap.Count != 1 || snap.Rejected != 1 {
		t.Fatalf("snapshot = %+v", snap)
	}
	// Handler latency covers only the admitted run...
	if snap.MeanMs != 10 || snap.MaxMs != 10 {
		t.Fatalf("handler latency = mean %v / max %v, want 10/10", snap.MeanMs, snap.MaxMs)
	}
	// ...while queue wait averages over both arrivals: (4ms+2ms)/2.
	if snap.MeanQueueMs != 3 || snap.MaxQueueMs != 4 {
		t.Fatalf("queue latency = mean %v / max %v, want 3/4", snap.MeanQueueMs, snap.MaxQueueMs)
	}
}

func TestHTTPMutateCompactAndGauges(t *testing.T) {
	s, _ := testServer(t, Config{CompactEvery: 10})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	post := func(t *testing.T, path string, body any, wantStatus int, into any) {
		t.Helper()
		var buf bytes.Buffer
		if body != nil {
			if err := json.NewEncoder(&buf).Encode(body); err != nil {
				t.Fatal(err)
			}
		}
		resp, err := srv.Client().Post(srv.URL+path, "application/json", &buf)
		if err != nil {
			t.Fatalf("POST %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != wantStatus {
			t.Fatalf("POST %s status = %d, want %d", path, resp.StatusCode, wantStatus)
		}
		if into != nil {
			if err := json.NewDecoder(resp.Body).Decode(into); err != nil {
				t.Fatalf("POST %s decode: %v", path, err)
			}
		}
	}

	var mr MutateResult
	post(t, "/mutate", mutateBody{
		Dataset: "tiny",
		Ops:     []EdgeOp{{Op: "add", Members: []uint32{4, 5}}},
	}, 200, &mr)
	if mr.Committed || mr.Pending != 1 {
		t.Fatalf("mutate = %+v, want 1 op staged under the batching policy", mr)
	}
	var cr CompactResult
	post(t, "/compact?dataset=tiny", nil, 200, &cr)
	if !cr.Committed || cr.Epoch != 1 {
		t.Fatalf("compact = %+v, want commit into epoch 1", cr)
	}

	// Forced commit via the wire flag.
	post(t, "/mutate", mutateBody{
		Dataset: "tiny",
		Ops:     []EdgeOp{{Op: "remove", ID: 5}},
		Commit:  true,
	}, 200, &mr)
	if !mr.Committed || mr.Epoch != 2 {
		t.Fatalf("forced mutate = %+v, want commit into epoch 2", mr)
	}

	// Error mapping.
	post(t, "/mutate", mutateBody{Dataset: "nope", Ops: []EdgeOp{{Op: "add", Members: []uint32{0}}}}, 404, nil)
	post(t, "/mutate", mutateBody{Dataset: "tiny", Ops: []EdgeOp{{Op: "bogus"}}}, 400, nil)
	post(t, "/compact?dataset=nope", nil, 404, nil)

	// The s-CC view over the wire: computed, then twice from memory.
	var scc SCCResult
	for _, path := range []string{"/scc?dataset=tiny&s=1", "/scc?dataset=tiny&s=1&incremental=true", "/scc?dataset=tiny&s=1"} {
		resp, err := srv.Client().Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		if err := json.NewDecoder(resp.Body).Decode(&scc); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if scc.NumComponents < 1 || scc.Epoch != 2 {
			t.Fatalf("GET %s = %+v", path, scc)
		}
	}

	// /metrics gains the per-dataset epoch gauge, the s-CC view counters,
	// cache evictions, and the queue-wait columns.
	resp, err := srv.Client().Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var met map[string]json.RawMessage
	if err := json.NewDecoder(resp.Body).Decode(&met); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	var ds map[string]struct {
		Epoch      uint64 `json:"epoch"`
		PendingOps int    `json:"pending_ops"`
	}
	if err := json.Unmarshal(met["datasets"], &ds); err != nil {
		t.Fatalf("datasets gauge: %v", err)
	}
	if ds["tiny"].Epoch != 2 || ds["tiny"].PendingOps != 0 {
		t.Fatalf("datasets gauge = %+v, want tiny at epoch 2 with no pending ops", ds)
	}
	var views map[string]int
	if err := json.Unmarshal(met["scc"], &views); err != nil {
		t.Fatalf("scc gauge: %v", err)
	}
	if views["views"] != 1 || views["full"] != 1 || views["incremental"] != 2 {
		t.Fatalf("scc gauge = %v, want one view that recomputed once and answered twice from memory", views)
	}
	var cache map[string]int64
	if err := json.Unmarshal(met["cache"], &cache); err != nil {
		t.Fatalf("cache gauge: %v", err)
	}
	if _, ok := cache["evictions"]; !ok {
		t.Fatalf("cache gauge = %v, want an evictions counter", cache)
	}
	var eps []EndpointSnapshot
	if err := json.Unmarshal(met["endpoints"], &eps); err != nil {
		t.Fatalf("endpoints gauge: %v", err)
	}
	// All four mutate requests were admitted (two succeeded, two errored
	// past admission), so the endpoint row counts every one.
	found := false
	for _, ep := range eps {
		if ep.Endpoint == "mutate" && ep.Count == 4 && ep.Errors == 2 {
			found = true
		}
	}
	if !found {
		t.Fatalf("endpoints gauge = %+v, want a mutate row with 4 admitted / 2 errored", eps)
	}
}

// TestHTTPMutateBodyCap: a body of exactly maxMutateBody bytes is served, one
// byte more is refused with a JSON 413 and nothing of it is applied — the
// oversized body stages an edge that must not appear.
func TestHTTPMutateBodyCap(t *testing.T) {
	s, _ := testServer(t, Config{CompactEvery: 10})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	// Valid JSON of exactly n bytes: the decoder skips the unknown pad field.
	bodyOf := func(n int) []byte {
		const head, tail = `{"dataset":"tiny","ops":[{"op":"add","members":[4,5]}],"pad":"`, `"}`
		return []byte(head + strings.Repeat("x", n-len(head)-len(tail)) + tail)
	}
	post := func(body []byte) (int, map[string]any) {
		t.Helper()
		resp, err := srv.Client().Post(srv.URL+"/mutate", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatalf("POST /mutate: %v", err)
		}
		defer resp.Body.Close()
		var out map[string]any
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatalf("POST /mutate: response is not JSON: %v", err)
		}
		return resp.StatusCode, out
	}

	if status, out := post(bodyOf(maxMutateBody + 1)); status != http.StatusRequestEntityTooLarge || out["error"] == nil {
		t.Fatalf("oversized body: status %d, body %v, want 413 with an error field", status, out)
	}
	if n := s.PendingOps("tiny"); n != 0 {
		t.Fatalf("oversized body staged %d op(s)", n)
	}
	if status, out := post(bodyOf(maxMutateBody)); status != http.StatusOK || out["pending"] != 1.0 {
		t.Fatalf("body at the cap: status %d, body %v, want 200 with one op staged", status, out)
	}
}
