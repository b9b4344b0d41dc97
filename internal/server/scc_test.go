package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"runtime"
	"slices"
	"sync"
	"testing"

	"nwhy"
	"nwhy/internal/core"
	"nwhy/internal/gen"
	"nwhy/internal/slinegraph"
)

// unprunedSCC is the reference labels of g's current snapshot: the
// components kernel with every pruning heuristic off.
func unprunedSCC(t *testing.T, g *nwhy.NWHypergraph, s int) []uint32 {
	t.Helper()
	h := g.Hypergraph()
	labels, err := slinegraph.SComponentsDirect(g.Engine(), slinegraph.FromHypergraph(h), s, slinegraph.Options{Prune: slinegraph.NoPrune})
	if err != nil {
		t.Fatal(err)
	}
	return labels[:h.NumEdges()]
}

// recount derives the /scc summary from a label vector.
func recount(labels []uint32) (components, largest int) {
	sizes := map[uint32]int{}
	for _, l := range labels {
		sizes[l]++
		largest = max(largest, sizes[l])
	}
	return len(sizes), largest
}

// checkSCCAgainst fails unless res is the answer want (the unpruned labels of
// res's epoch) implies: the same labels when the reply carries any, and a
// summary that is a recount of them.
func checkSCCAgainst(res SCCResult, want []uint32) error {
	if res.Labels != nil && !slices.Equal(res.Labels, want) {
		return fmt.Errorf("s=%d epoch %d: %d labels are not the %d unpruned labels of that epoch", res.S, res.Epoch, len(res.Labels), len(want))
	}
	if c, l := recount(want); res.NumComponents != c || res.LargestSize != l {
		return fmt.Errorf("s=%d epoch %d: summary (%d, %d), a recount of the labels gives (%d, %d)", res.S, res.Epoch, res.NumComponents, res.LargestSize, c, l)
	}
	return nil
}

// checkSCCReply checks res against the unpruned kernel on the
// registry's handle, which must be quiescent at the epoch res reports.
func checkSCCReply(t *testing.T, s *Server, res SCCResult) {
	t.Helper()
	g, err := s.Registry().Get(res.Dataset)
	if err != nil {
		t.Fatal(err)
	}
	if g.Epoch() != res.Epoch {
		t.Fatalf("reply reports epoch %d, the dataset is at %d", res.Epoch, g.Epoch())
	}
	if err := checkSCCAgainst(res, unprunedSCC(t, g, res.S)); err != nil {
		t.Fatal(err)
	}
}

// containment generates the input of the epoch tests (gen.Containment does
// not repeat, so twin handles wrap one instance), and batch is the c-th
// commit on it: a new toplex bridging two earlier hyperedges plus a subset of
// it, and on every tenth commit the removal of an original hyperedge — so
// nine gaps in ten are insert-only.
func containment() *core.Hypergraph {
	return gen.Containment(gen.ContainmentConfig{
		NumBase: 40, NumNodes: 120, BaseSize: 8, SubsPerBase: 4, MemberSkew: 0.4, Seed: 5,
	})
}

func batch(g *nwhy.NWHypergraph, c int) []EdgeOp {
	a, b := g.Incidence(10+c%30), g.Incidence(10+(c*7+3)%30)
	top := append(append([]uint32(nil), a[:3]...), b[:3]...)
	ops := []EdgeOp{{Op: "add", Members: top}, {Op: "add", Members: top[1:4]}}
	if c%10 == 9 {
		ops = append(ops, EdgeOp{Op: "remove", ID: uint32(c / 10)})
	}
	return ops
}

// TestSCCRepliesMatchUnprunedFacade: however /scc is spelled — with or
// without labels, with the retired route selectors, in process or over HTTP —
// and however the view got there — computed, from memory, absorbed, recomputed
// after a removal — the reply is the unpruned kernel's labels at the epoch
// it reports.
func TestSCCRepliesMatchUnprunedFacade(t *testing.T) {
	eng := nwhy.NewEngine(2)
	defer eng.Close()
	reg := NewRegistry()
	g := nwhy.Wrap(containment()).WithEngine(eng)
	reg.Add("contain", g, "")
	s, err := New(Config{Engine: eng}, reg)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	ctx := context.Background()

	for c := 0; c < 12; c++ {
		for sv := 1; sv <= 3; sv++ {
			for _, req := range []SCCRequest{
				{Dataset: "contain", S: sv},
				{Dataset: "contain", S: sv, WithLabels: true},
				{Dataset: "contain", S: sv, WithLabels: true, Incremental: true},
			} {
				res, err := s.SComponents(ctx, req)
				if err != nil {
					t.Fatalf("%+v: %v", req, err)
				}
				if (res.Labels != nil) != req.WithLabels {
					t.Fatalf("%+v: labels present = %v", req, res.Labels != nil)
				}
				checkSCCReply(t, s, res)
			}
			for _, q := range []string{"", "&prune=toplex", "&prune=bogus", "&incremental=true", "&direct=true"} {
				path := fmt.Sprintf("/scc?dataset=contain&s=%d&labels=true%s", sv, q)
				resp, err := srv.Client().Get(srv.URL + path)
				if err != nil {
					t.Fatalf("GET %s: %v", path, err)
				}
				var res SCCResult
				err = json.NewDecoder(resp.Body).Decode(&res)
				resp.Body.Close()
				if err != nil || resp.StatusCode != 200 {
					t.Fatalf("GET %s: status %d, %v", path, resp.StatusCode, err)
				}
				if !res.Incremental {
					t.Fatalf("GET %s recomputed what the requests before it had asked for", path)
				}
				checkSCCReply(t, s, res)
			}
		}
		if _, err := s.Mutate(ctx, MutateRequest{Dataset: "contain", Ops: batch(g, c)}); err != nil {
			t.Fatal(err)
		}
	}
	// Three views; each recomputed at the first request and after the one
	// commit with a removal, and absorbed the ten insert-only ones.
	if views, _, full := s.sccCounts(); views != 3 || full != 6 {
		t.Fatalf("%d views with %d full recomputes, want 3 with 6", views, full)
	}

	// The retired strategy and prune parameters are ignored on /slinegraph
	// too, like any parameter it does not read.
	for path, want := range map[string]int{
		"/slinegraph?dataset=contain&s=1&prune=degree":    200,
		"/slinegraph?dataset=contain&s=1&prune=nope":      200,
		"/slinegraph?dataset=contain&s=1&strategy=bogus":  200,
		"/slinegraph?dataset=contain&s=1&edges=sometimes": 400,
	} {
		resp, err := srv.Client().Get(srv.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Fatalf("GET %s status = %d, want %d", path, resp.StatusCode, want)
		}
	}
}

// TestSCCServedRepliesNeverCrossAnEpoch: three /scc readers beside a writer
// whose every tenth commit removes a hyperedge, so replies come from memory,
// from an absorbed gap and from a full recompute while the epoch moves. Each
// reply is the unpruned answer of the one epoch it reports, which is never
// older than the dataset was when the request was made. Run under -race.
func TestSCCServedRepliesNeverCrossAnEpoch(t *testing.T) {
	const commits = 60
	ctx := context.Background()

	// The same batches on a twin handle give every epoch's reference labels.
	h := containment()
	ref := nwhy.Wrap(h)
	want := map[int][][]uint32{}
	record := func() {
		for _, sv := range []int{2, 3} {
			want[sv] = append(want[sv], unprunedSCC(t, ref, sv))
		}
	}
	record()
	for c := 0; c < commits; c++ {
		err := ref.Mutate(func(m *nwhy.Mutation) error {
			_, _, err := applyOps(m, batch(ref, c))
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
		record()
	}

	eng := nwhy.NewEngine(2)
	defer eng.Close()
	reg := NewRegistry()
	g := nwhy.Wrap(h).WithEngine(eng)
	reg.Add("contain", g, "")
	s, err := New(Config{Engine: eng}, reg)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-done:
					return
				default:
				}
				before := g.Epoch()
				res, err := s.SComponents(ctx, SCCRequest{Dataset: "contain", S: 2 + (r+i)%2, WithLabels: (r+i/2)%2 == 0})
				if err != nil {
					t.Error(err)
					return
				}
				if res.Epoch < before || res.Epoch > commits {
					t.Errorf("reply at epoch %d to a request made at epoch %d", res.Epoch, before)
					return
				}
				if err := checkSCCAgainst(res, want[res.S][res.Epoch]); err != nil {
					t.Error(err)
					return
				}
			}
		}(r)
	}
	for c := 0; c < commits; c++ {
		if _, err := s.Mutate(ctx, MutateRequest{Dataset: "contain", Ops: batch(g, c)}); err != nil {
			t.Error(err)
			break
		}
	}
	close(done)
	wg.Wait()
	// A view never goes back: at most one full recompute per removal commit
	// plus the first.
	if _, _, full := s.sccCounts(); full > 2*(1+commits/10) {
		t.Errorf("%d full recomputes over two views and %d removal commits", full, commits/10)
	}
}

// TestSCCConcurrentFirstRequestsBuildOnce: identical requests arriving
// together at an epoch nobody has asked at serialize on the view; one builds,
// the rest read its answer.
func TestSCCConcurrentFirstRequestsBuildOnce(t *testing.T) {
	eng := nwhy.NewEngine(2)
	defer eng.Close()
	reg := NewRegistry()
	reg.Add("stress", stressGraph().WithEngine(eng), "")
	s, err := New(Config{Engine: eng, MaxInFlight: 16}, reg)
	if err != nil {
		t.Fatal(err)
	}
	const callers = 8
	replies := make([]SCCResult, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var err error
			if replies[i], err = s.SComponents(context.Background(), SCCRequest{Dataset: "stress", S: 2, WithLabels: true}); err != nil {
				t.Error(err)
			}
		}(i)
	}
	wg.Wait()
	built := 0
	for _, res := range replies {
		if !res.Incremental {
			built++
		}
		checkSCCReply(t, s, res)
	}
	if _, incremental, full := s.sccCounts(); built != 1 || full != 1 || incremental != callers-1 {
		t.Fatalf("%d replies report a recompute, the view counts %d full and %d incremental; want 1, 1, %d", built, full, incremental, callers-1)
	}
}

// TestSCCFailedBuildLeavesViewAsItWas: a build that is cancelled, or that
// panics, fails its own request only — the memo still holds the last answer,
// the view's lock is free, and the next request gets the right labels by the
// route it would have taken anyway.
func TestSCCFailedBuildLeavesViewAsItWas(t *testing.T) {
	s, _ := testServer(t, Config{})
	ctx := context.Background()
	req := SCCRequest{Dataset: "tiny", S: 1, WithLabels: true}
	if _, err := s.SComponents(ctx, req); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Mutate(ctx, MutateRequest{Dataset: "tiny", Ops: []EdgeOp{{Op: "add", Members: []uint32{4, 5}}}}); err != nil {
		t.Fatal(err)
	}
	g, _ := s.Registry().Get("tiny")
	e := s.sccView("tiny", 1, g)
	cancelled, cancel := context.WithCancel(ctx)
	cancel()
	if _, _, err := e.answer(cancelled); err == nil {
		t.Fatal("a cancelled build answered")
	}
	if e.memo == nil || e.memo.epoch != 0 || len(e.memo.labels) != 5 {
		t.Fatalf("memo after a cancelled build = %+v, want the epoch-0 answer", e.memo)
	}
	res, err := s.SComponents(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Incremental || res.Epoch != 1 {
		t.Fatalf("after a cancelled build = %+v, want the commit absorbed", res)
	}
	checkSCCReply(t, s, res)

	// A view with nothing behind it panics in its build.
	broken := &sccEntry{g: g}
	s.sccMu.Lock()
	s.sccs[sccKey{dataset: "tiny", s: 2}] = broken
	s.sccMu.Unlock()
	if _, err := s.SComponents(ctx, SCCRequest{Dataset: "tiny", S: 2}); err == nil {
		t.Fatal("a panicking build answered")
	}
	if !broken.mu.TryLock() {
		t.Fatal("a panicking build kept the view's lock")
	}
	broken.mu.Unlock()
	if broken.memo != nil {
		t.Fatal("a panicking build left a memo")
	}
}

// TestSCCViewsAreBounded: s comes from the request, so a client sweeping it
// must not grow the server; evicted shapes are rebuilt on demand and still
// answer correctly.
func TestSCCViewsAreBounded(t *testing.T) {
	eng := nwhy.NewEngine(2)
	defer eng.Close()
	reg := NewRegistry()
	reg.Add("tiny", nwhy.FromSets(twoIslands(), 8).WithEngine(eng), "")
	reg.Add("contain", nwhy.Wrap(containment()).WithEngine(eng), "")
	s, err := New(Config{Engine: eng}, reg)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for round := 0; round < 2; round++ {
		for sv := 1; sv <= 4*maxSCCViews; sv++ {
			for _, ds := range []string{"tiny", "contain"} {
				res, err := s.SComponents(ctx, SCCRequest{Dataset: ds, S: sv, WithLabels: true})
				if err != nil {
					t.Fatalf("%s s=%d: %v", ds, sv, err)
				}
				if res.Incremental {
					t.Fatalf("%s s=%d answered from a view that should have been evicted", ds, sv)
				}
				if sv <= 4 || sv%16 == 0 {
					checkSCCReply(t, s, res)
				}
				if views, _, _ := s.sccCounts(); views > maxSCCViews {
					t.Fatalf("%d resident views after %s s=%d, the cap is %d", views, ds, sv, maxSCCViews)
				}
			}
		}
	}
	// The most recent shapes are resident: asking again is a read.
	res, err := s.SComponents(ctx, SCCRequest{Dataset: "contain", S: 4 * maxSCCViews})
	if err != nil || !res.Incremental {
		t.Fatalf("most recent shape = %+v, %v; want a hit", res, err)
	}
}

// TestSCCHitAllocatesNothingPerEdge: a summary-only /scc at an unchanged
// epoch costs the same few small allocations whatever the dataset's size.
func TestSCCHitAllocatesNothingPerEdge(t *testing.T) {
	eng := nwhy.NewEngine(2)
	defer eng.Close()
	reg := NewRegistry()
	reg.Add("small", nwhy.Wrap(gen.BipartitePowerLaw(200, 150, 1500, 1.6, 7)).WithEngine(eng), "")
	reg.Add("large", nwhy.Wrap(gen.BipartitePowerLaw(5000, 4000, 30000, 1.6, 7)).WithEngine(eng), "")
	s, err := New(Config{Engine: eng}, reg)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	measure := func(ds string) (allocs float64, bytes uint64) {
		req := SCCRequest{Dataset: ds, S: 2}
		hit := func() {
			if res, err := s.SComponents(ctx, req); err != nil || !res.Incremental {
				t.Fatalf("%s: %+v, %v; want a hit", ds, res, err)
			}
		}
		if _, err := s.SComponents(ctx, req); err != nil {
			t.Fatal(err)
		}
		allocs = testing.AllocsPerRun(100, hit)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < 100; i++ {
			hit()
		}
		runtime.ReadMemStats(&after)
		return allocs, (after.TotalAlloc - before.TotalAlloc) / 100
	}
	smallAllocs, smallBytes := measure("small")
	largeAllocs, largeBytes := measure("large")
	t.Logf("hit: %.0f allocs / %d B on 200 hyperedges, %.0f allocs / %d B on 5000", smallAllocs, smallBytes, largeAllocs, largeBytes)
	if largeAllocs > smallAllocs || largeAllocs > 8 {
		t.Fatalf("a hit allocates %.0f times on 5000 hyperedges, %.0f on 200; want a constant of at most 8", largeAllocs, smallAllocs)
	}
	// One uint32 per hyperedge would be 20 kB.
	if largeBytes > 1024 {
		t.Fatalf("a hit allocates %d B on 5000 hyperedges (%d B on 200)", largeBytes, smallBytes)
	}
}
