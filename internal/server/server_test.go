package server

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"nwhy"
)

// twoIslands is 5 hyperedges over 8 nodes forming two 1-connected islands:
// {e0,e1,e2} chained via shared nodes and {e3,e4}.
func twoIslands() [][]uint32 {
	return [][]uint32{
		{0, 1, 2},
		{2, 3},
		{3, 4},
		{5, 6},
		{6, 7},
	}
}

func testServer(t *testing.T, cfg Config) (*Server, *nwhy.Engine) {
	t.Helper()
	eng := nwhy.NewEngine(4)
	if cfg.Engine == nil {
		cfg.Engine = eng
	}
	reg := NewRegistry()
	reg.Add("tiny", nwhy.FromSets(twoIslands(), 8).WithEngine(cfg.Engine), "")
	s, err := New(cfg, reg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return s, cfg.Engine
}

func TestSLineCacheHitAndMiss(t *testing.T) {
	s, _ := testServer(t, Config{})
	ctx := context.Background()
	req := SLineRequest{Dataset: "tiny", S: 1, Edges: true}

	first, err := s.SLine(ctx, req)
	if err != nil {
		t.Fatalf("SLine: %v", err)
	}
	if first.CacheHit {
		t.Fatal("first construction reported a cache hit")
	}
	if first.NumVertices != 5 || first.NumEdges != 3 {
		t.Fatalf("shape = (%d,%d), want (5,3)", first.NumVertices, first.NumEdges)
	}
	second, err := s.SLine(ctx, req)
	if err != nil {
		t.Fatalf("SLine (repeat): %v", err)
	}
	if !second.CacheHit {
		t.Fatal("repeated construction missed the cache")
	}
	hits, misses, _ := s.Cache().Stats()
	if hits != 1 || misses != 1 {
		t.Fatalf("cache stats = %d hits / %d misses, want 1/1", hits, misses)
	}
	// A different key is a fresh miss.
	if r, err := s.SLine(ctx, SLineRequest{Dataset: "tiny", S: 2, Edges: true}); err != nil || r.CacheHit {
		t.Fatalf("s=2: err=%v hit=%v, want fresh miss", err, r.CacheHit)
	}
}

// TestSLineCacheKeyedOnWhatIsBuilt: two requests for one graph, spelled with
// the retired (and ignored) strategy and prune parameters, share one cache
// entry — the second is a hit, and the graph is built once.
func TestSLineCacheKeyedOnWhatIsBuilt(t *testing.T) {
	s, _ := testServer(t, Config{})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	for i, query := range []string{"strategy=hashmap", "strategy=dense&prune=none"} {
		resp, err := srv.Client().Get(srv.URL + "/slinegraph?dataset=tiny&s=2&" + query)
		if err != nil {
			t.Fatal(err)
		}
		var sl SLineResult
		err = json.NewDecoder(resp.Body).Decode(&sl)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d, decode err %v", query, resp.StatusCode, err)
		}
		if sl.CacheHit != (i > 0) {
			t.Fatalf("%s: cache_hit = %v, want %v", query, sl.CacheHit, i > 0)
		}
	}
	if _, misses, _ := s.Cache().Stats(); misses != 1 || s.Cache().Len() != 1 {
		t.Fatalf("%d builds into %d entries, want 1 into 1", misses, s.Cache().Len())
	}
}

func TestSLineValidation(t *testing.T) {
	s, _ := testServer(t, Config{})
	ctx := context.Background()
	if _, err := s.SLine(ctx, SLineRequest{Dataset: "tiny", S: 0, Edges: true}); !errors.Is(err, ErrBadRequest) {
		t.Fatalf("s=0 err = %v, want ErrBadRequest", err)
	}
	if _, err := s.SLine(ctx, SLineRequest{Dataset: "tiny", S: 1, Weighted: true}); !errors.Is(err, ErrBadRequest) {
		t.Fatalf("weighted node-line err = %v, want ErrBadRequest", err)
	}
	if _, err := s.SLine(ctx, SLineRequest{Dataset: "nope", S: 1, Edges: true}); !errors.Is(err, ErrUnknownDataset) {
		t.Fatalf("unknown dataset err = %v, want ErrUnknownDataset", err)
	}
}

// TestSComponentsCachedMatchesDirect: /scc labels, computed and repeated from
// memory, are the unpruned kernel's labels.
func TestSComponentsCachedMatchesDirect(t *testing.T) {
	s, eng := testServer(t, Config{})
	ctx := context.Background()
	want := unprunedSCC(t, nwhy.FromSets(twoIslands(), 8).WithEngine(eng), 1)
	for _, when := range []string{"computed", "repeated"} {
		got, err := s.SComponents(ctx, SCCRequest{Dataset: "tiny", S: 1, WithLabels: true})
		if err != nil {
			t.Fatalf("%s: %v", when, err)
		}
		if got.NumComponents != 2 || got.LargestSize != 3 || !slices.Equal(got.Labels, want) {
			t.Fatalf("%s = %+v, want 2 components, largest 3, labels %v", when, got, want)
		}
	}
}

func TestSDistanceAndSPath(t *testing.T) {
	s, _ := testServer(t, Config{})
	ctx := context.Background()

	d, err := s.SDistance(ctx, SDistanceRequest{Dataset: "tiny", S: 1, Src: 0, Dst: 2})
	if err != nil {
		t.Fatalf("SDistance: %v", err)
	}
	if !d.Reachable || d.Distance != 2 {
		t.Fatalf("distance(0,2) = %+v, want reachable 2", d)
	}
	cross, err := s.SDistance(ctx, SDistanceRequest{Dataset: "tiny", S: 1, Src: 0, Dst: 4})
	if err != nil {
		t.Fatalf("SDistance cross-island: %v", err)
	}
	if cross.Reachable {
		t.Fatalf("distance(0,4) = %+v, want unreachable", cross)
	}
	p, err := s.SPath(ctx, SDistanceRequest{Dataset: "tiny", S: 1, Src: 0, Dst: 2})
	if err != nil {
		t.Fatalf("SPath: %v", err)
	}
	if len(p.Path) != 3 || p.Path[0] != 0 || p.Path[2] != 2 {
		t.Fatalf("path(0,2) = %v, want [0 1 2]", p.Path)
	}
	if _, err := s.SDistance(ctx, SDistanceRequest{Dataset: "tiny", S: 1, Src: 0, Dst: 99}); !errors.Is(err, ErrBadRequest) {
		t.Fatalf("out-of-range dst err = %v, want ErrBadRequest", err)
	}
}

func TestCentralityKinds(t *testing.T) {
	s, _ := testServer(t, Config{})
	ctx := context.Background()
	for _, kind := range []CentralityKind{CentralityBetweenness, CentralityCloseness, CentralityHarmonic, CentralityEccentricity, CentralityPageRank} {
		out, err := s.Centrality(ctx, CentralityRequest{Dataset: "tiny", S: 1, Kind: kind})
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		if len(out.Scores) != 5 {
			t.Fatalf("%s: %d scores, want 5", kind, len(out.Scores))
		}
	}
	if _, err := s.Centrality(ctx, CentralityRequest{Dataset: "tiny", S: 1, Kind: "nope"}); !errors.Is(err, ErrBadRequest) {
		t.Fatalf("unknown kind err = %v, want ErrBadRequest", err)
	}
	if _, err := s.Centrality(ctx, CentralityRequest{Dataset: "tiny", S: 1, Kind: CentralityPageRank, Weighted: true}); !errors.Is(err, ErrBadRequest) {
		t.Fatalf("weighted pagerank err = %v, want ErrBadRequest", err)
	}
}

// TestCentralityRejectsUnknownKindBeforeBuilding: a kind no build can answer
// is a bad request before any s-line graph is built or cached.
func TestCentralityRejectsUnknownKindBeforeBuilding(t *testing.T) {
	s, _ := testServer(t, Config{})
	if _, err := s.Centrality(context.Background(), CentralityRequest{Dataset: "tiny", S: 1, Kind: "bogus"}); !errors.Is(err, ErrBadRequest) {
		t.Fatalf("unknown kind err = %v, want ErrBadRequest", err)
	}
	if _, misses, _ := s.Cache().Stats(); misses != 0 || s.Cache().Len() != 0 {
		t.Fatalf("an unknown kind built %d graphs into %d entries, want none", misses, s.Cache().Len())
	}
}

func TestAdmissionQueueBounds(t *testing.T) {
	a := NewAdmission(1, 1, 50*time.Millisecond)
	release, err := a.Acquire(context.Background())
	if err != nil {
		t.Fatalf("first Acquire: %v", err)
	}
	if a.InFlight() != 1 {
		t.Fatalf("InFlight = %d, want 1", a.InFlight())
	}

	// One waiter is allowed and times out once the deadline passes.
	var wg sync.WaitGroup
	wg.Add(1)
	waiterErr := make(chan error, 1)
	started := make(chan struct{})
	go func() {
		defer wg.Done()
		close(started)
		_, err := a.Acquire(context.Background())
		waiterErr <- err
	}()
	<-started
	// Wait until the waiter is actually queued before probing the bound.
	for a.QueueDepth() == 0 {
		time.Sleep(time.Millisecond)
	}
	if _, err := a.Acquire(context.Background()); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("over-queue Acquire err = %v, want ErrOverloaded", err)
	}
	if err := <-waiterErr; !errors.Is(err, ErrQueueTimeout) {
		t.Fatalf("queued Acquire err = %v, want ErrQueueTimeout", err)
	}
	wg.Wait()

	// A cancelled caller leaves the queue immediately.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := a.Acquire(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled Acquire err = %v, want context.Canceled", err)
	}

	// Releasing the slot lets the next query in; release is idempotent.
	release()
	release()
	if a.InFlight() != 0 {
		t.Fatalf("InFlight after release = %d, want 0", a.InFlight())
	}
	r2, err := a.Acquire(context.Background())
	if err != nil {
		t.Fatalf("Acquire after release: %v", err)
	}
	r2()
}

func TestServerRejectsWhenOverloaded(t *testing.T) {
	s, _ := testServer(t, Config{MaxInFlight: 1, MaxQueue: 1, QueueWait: 20 * time.Millisecond})
	// Occupy the only slot directly.
	release, err := s.Admission().Acquire(context.Background())
	if err != nil {
		t.Fatalf("Acquire: %v", err)
	}
	defer release()
	if _, err := s.Stats(context.Background(), "tiny"); !errors.Is(err, ErrQueueTimeout) {
		t.Fatalf("queued Stats err = %v, want ErrQueueTimeout", err)
	}
	snaps := s.Metrics()
	if len(snaps) != 1 || snaps[0].Endpoint != "stats" || snaps[0].Rejected != 1 {
		t.Fatalf("metrics = %+v, want one stats row with Rejected=1", snaps)
	}
}

func TestCacheSingleFlight(t *testing.T) {
	c := NewSLineCache(4)
	key := CacheKey{Dataset: "d", S: 1, Edges: true}
	var builds int
	var mu sync.Mutex
	barrier := make(chan struct{})

	build := func() (*nwhy.SLineGraph, *nwhy.WeightedSLineGraph, error) {
		mu.Lock()
		builds++
		mu.Unlock()
		<-barrier
		return &nwhy.SLineGraph{}, nil, nil
	}

	const callers = 8
	var wg sync.WaitGroup
	results := make([]bool, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, _, hit, err := c.Get(context.Background(), key, build)
			if err != nil {
				t.Errorf("Get: %v", err)
			}
			results[i] = hit
		}(i)
	}
	// Let the flight start, then release it.
	for {
		mu.Lock()
		n := builds
		mu.Unlock()
		if n > 0 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	close(barrier)
	wg.Wait()

	if builds != 1 {
		t.Fatalf("builds = %d, want 1 (single flight)", builds)
	}
	missCount := 0
	for _, hit := range results {
		if !hit {
			missCount++
		}
	}
	if missCount != 1 {
		t.Fatalf("%d callers reported a miss, want exactly 1", missCount)
	}
}

func TestCacheErrorNotRetained(t *testing.T) {
	c := NewSLineCache(4)
	key := CacheKey{Dataset: "d", S: 1}
	boom := errors.New("boom")
	if _, _, _, err := c.Get(context.Background(), key, func() (*nwhy.SLineGraph, *nwhy.WeightedSLineGraph, error) {
		return nil, nil, boom
	}); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if c.Len() != 0 {
		t.Fatalf("Len after failed build = %d, want 0", c.Len())
	}
	// The next request re-runs the build.
	if _, _, hit, err := c.Get(context.Background(), key, func() (*nwhy.SLineGraph, *nwhy.WeightedSLineGraph, error) {
		return &nwhy.SLineGraph{}, nil, nil
	}); err != nil || hit {
		t.Fatalf("retry: err=%v hit=%v, want fresh successful miss", err, hit)
	}
}

func TestCacheEviction(t *testing.T) {
	c := NewSLineCache(2)
	mk := func(s int) CacheKey { return CacheKey{Dataset: "d", S: s} }
	ok := func() (*nwhy.SLineGraph, *nwhy.WeightedSLineGraph, error) {
		return &nwhy.SLineGraph{}, nil, nil
	}
	for s := 1; s <= 3; s++ {
		if _, _, _, err := c.Get(context.Background(), mk(s), ok); err != nil {
			t.Fatalf("Get s=%d: %v", s, err)
		}
	}
	if c.Len() != 2 {
		t.Fatalf("Len = %d, want 2 (LRU bound)", c.Len())
	}
	// s=1 was evicted; s=3 (most recent) is still a hit.
	if _, _, hit, _ := c.Get(context.Background(), mk(3), ok); !hit {
		t.Fatal("most-recent key was evicted")
	}
	if _, _, hit, _ := c.Get(context.Background(), mk(1), ok); hit {
		t.Fatal("least-recent key survived eviction")
	}
}

// TestCachePanickingBuildFailsWaiters: a build that panics closes its
// single-flight entry with an error — the builder and every waiter get it,
// nobody blocks on the abandoned entry, and the next request rebuilds.
func TestCachePanickingBuildFailsWaiters(t *testing.T) {
	c := NewSLineCache(4)
	key := CacheKey{Dataset: "d", S: 1}
	started, release := make(chan struct{}), make(chan struct{})
	errs := make(chan error, 2)
	go func() {
		_, _, _, err := c.Get(context.Background(), key, func() (*nwhy.SLineGraph, *nwhy.WeightedSLineGraph, error) {
			close(started)
			<-release
			panic("kernel bug")
		})
		errs <- err
	}()
	<-started
	go func() {
		_, _, _, err := c.Get(context.Background(), key, func() (*nwhy.SLineGraph, *nwhy.WeightedSLineGraph, error) {
			t.Error("waiter ran its own build")
			return nil, nil, nil
		})
		errs <- err
	}()
	for _, _, waits := c.Stats(); waits == 0; _, _, waits = c.Stats() {
		time.Sleep(time.Millisecond)
	}
	close(release)
	for i := 0; i < 2; i++ {
		select {
		case err := <-errs:
			if err == nil || !strings.Contains(err.Error(), "kernel bug") {
				t.Fatalf("err = %v, want the panic as an error", err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("a caller is still blocked on the panicked build's entry")
		}
	}
	if c.Len() != 0 {
		t.Fatalf("Len after panicked build = %d, want 0", c.Len())
	}
	if _, _, hit, err := c.Get(context.Background(), key, func() (*nwhy.SLineGraph, *nwhy.WeightedSLineGraph, error) {
		return &nwhy.SLineGraph{}, nil, nil
	}); err != nil || hit {
		t.Fatalf("retry: err=%v hit=%v, want fresh successful miss", err, hit)
	}
}

// TestCacheWaiterOutlivesCancelledBuilder: the request that builds a miss is
// cancelled mid-build. A waiter whose own ctx is live does not inherit that
// cancellation: it retries, runs the build itself, and gets a graph — two
// misses, one entry.
func TestCacheWaiterOutlivesCancelledBuilder(t *testing.T) {
	c := NewSLineCache(4)
	key := CacheKey{Dataset: "d", S: 1, Edges: true}
	bctx, cancel := context.WithCancel(context.Background())
	started, builderErr := make(chan struct{}), make(chan error, 1)
	go func() {
		_, _, _, err := c.Get(bctx, key, func() (*nwhy.SLineGraph, *nwhy.WeightedSLineGraph, error) {
			close(started)
			<-bctx.Done()
			return nil, nil, bctx.Err()
		})
		builderErr <- err
	}()
	<-started
	want := &nwhy.SLineGraph{}
	type reply struct {
		lg  *nwhy.SLineGraph
		err error
	}
	waiter := make(chan reply, 1)
	go func() {
		lg, _, _, err := c.Get(context.Background(), key, func() (*nwhy.SLineGraph, *nwhy.WeightedSLineGraph, error) {
			return want, nil, nil
		})
		waiter <- reply{lg, err}
	}()
	for _, _, waits := c.Stats(); waits == 0; _, _, waits = c.Stats() {
		time.Sleep(time.Millisecond)
	}
	cancel()
	if err := <-builderErr; !errors.Is(err, context.Canceled) {
		t.Fatalf("builder err = %v, want Canceled", err)
	}
	select {
	case r := <-waiter:
		if r.err != nil || r.lg != want {
			t.Fatalf("live waiter got graph %v, err %v; want the graph", r.lg != nil, r.err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the live waiter is still blocked")
	}
	if _, misses, _ := c.Stats(); misses != 2 || c.Len() != 1 {
		t.Fatalf("%d misses into %d entries, want 2 into 1", misses, c.Len())
	}
}

// TestDoRecoversPanic: a panic inside a request body becomes an error the
// HTTP layer maps to 500, the admission slot is released and the request
// still reaches the endpoint metrics.
func TestDoRecoversPanic(t *testing.T) {
	s, _ := testServer(t, Config{MaxInFlight: 1})
	err := s.do(context.Background(), "boom", func(context.Context) error { panic("kernel bug") })
	if err == nil || !strings.Contains(err.Error(), "kernel bug") {
		t.Fatalf("err = %v, want the panic as an error", err)
	}
	if got := statusFor(err); got != http.StatusInternalServerError {
		t.Fatalf("status = %d, want 500", got)
	}
	if n := s.Admission().InFlight(); n != 0 {
		t.Fatalf("in-flight after panic = %d, want 0 (slot leaked)", n)
	}
	// The one slot is free again: the next request is admitted and runs.
	if err := s.do(context.Background(), "boom", func(context.Context) error { return nil }); err != nil {
		t.Fatalf("request after panic: %v", err)
	}
	if m := s.Metrics(); len(m) != 1 || m[0].Endpoint != "boom" || m[0].Count != 2 || m[0].Errors != 1 {
		t.Fatalf("metrics = %+v, want endpoint boom with 2 requests, 1 error", m)
	}
}

// TestSLineHandlesDoNotGrowWithCommits: more request shapes than the cache
// holds, asked again after each of several commits, leave reachable from the
// Server at most the LRU's CacheEntries handles plus the newest handle of
// each shape — never one per (shape, epoch).
func TestSLineHandlesDoNotGrowWithCommits(t *testing.T) {
	handlesStayBounded(t, false)
}

// handlesStayBounded is TestSLineHandlesDoNotGrowWithCommits; withScores also
// asks each shape's harmonic vector, which the handle then carries.
func handlesStayBounded(t *testing.T, withScores bool) {
	t.Helper()
	const capacity, shapes, commits = 2, 5, 3
	s, _ := testServer(t, Config{CacheEntries: capacity})
	ctx := context.Background()
	var built, freed atomic.Int64
	askEveryShape := func() { // returns holding no handle
		for sv := 1; sv <= shapes; sv++ {
			lg, _, hit, err := s.slineGraph(ctx, SLineRequest{Dataset: "tiny", S: sv, Edges: true})
			if err != nil {
				t.Fatalf("s=%d: %v", sv, err)
			}
			if !hit {
				built.Add(1)
				runtime.SetFinalizer(lg, func(*nwhy.SLineGraph) { freed.Add(1) })
			}
			if !withScores {
				continue
			}
			if _, err := s.Centrality(ctx, CentralityRequest{Dataset: "tiny", S: sv, Kind: CentralityHarmonic}); err != nil {
				t.Fatalf("s=%d: Centrality: %v", sv, err)
			}
		}
	}
	for c := 0; c <= commits; c++ {
		askEveryShape()
		if _, err := s.Mutate(ctx, MutateRequest{Dataset: "tiny", Ops: []EdgeOp{{Op: "add", Members: []uint32{uint32(c), 7}}}}); err != nil {
			t.Fatalf("Mutate: %v", err)
		}
	}
	const bound = capacity + shapes
	if built.Load() <= bound {
		t.Fatalf("only %d handles built, the bound was never under pressure", built.Load())
	}
	for deadline := time.Now().Add(5 * time.Second); built.Load()-freed.Load() > bound && time.Now().Before(deadline); {
		runtime.GC()
		time.Sleep(5 * time.Millisecond)
	}
	live := built.Load() - freed.Load()
	runtime.KeepAlive(s) // the handles counted live are the ones s still holds
	if live > bound {
		t.Fatalf("%d of %d s-line handles still reachable, want at most %d", live, built.Load(), bound)
	}
}

func TestRegistryWarmStart(t *testing.T) {
	dir := t.TempDir()
	eng := nwhy.NewEngine(2)
	seed := nwhy.FromSets(twoIslands(), 8)
	if err := seed.SaveSnapshot(filepath.Join(dir, "islands.nwhyb")); err != nil {
		t.Fatalf("SaveSnapshot: %v", err)
	}
	if err := seed.Save(filepath.Join(dir, "islands-text.mtx")); err != nil {
		t.Fatalf("Save: %v", err)
	}

	reg := NewRegistry()
	names, err := reg.WarmStart(context.Background(), eng, dir)
	if err != nil {
		t.Fatalf("WarmStart: %v", err)
	}
	if len(names) != 2 {
		t.Fatalf("loaded %v, want 2 datasets", names)
	}
	g, err := reg.Get("islands")
	if err != nil {
		t.Fatalf("Get: %v", err)
	}
	// An unbound engine passes through Detach unchanged, so the handle is
	// bound to the serving engine itself.
	if g.Engine() != eng {
		t.Fatal("warm-started handle is not bound to the serving engine")
	}
	if g.NumEdges() != 5 || g.NumNodes() != 8 {
		t.Fatalf("shape = (%d,%d), want (5,8)", g.NumEdges(), g.NumNodes())
	}
	if src := reg.Source("islands"); !strings.HasSuffix(src, "islands.nwhyb") {
		t.Fatalf("source = %q, want the snapshot path", src)
	}

	// Cancelled warm starts keep what they loaded and report the ctx error.
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	reg2 := NewRegistry()
	if _, err := reg2.WarmStart(cancelled, eng, dir); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled WarmStart err = %v, want context.Canceled", err)
	}
}

func TestContextCancellationReachesKernels(t *testing.T) {
	s, _ := testServer(t, Config{})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.SLine(ctx, SLineRequest{Dataset: "tiny", S: 1, Edges: true}); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled SLine err = %v, want context.Canceled", err)
	}
	// The failed construction must not have been cached.
	if s.Cache().Len() != 0 {
		t.Fatalf("cache holds %d entries after a cancelled build, want 0", s.Cache().Len())
	}
}

func TestHTTPEndpoints(t *testing.T) {
	s, _ := testServer(t, Config{})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	get := func(t *testing.T, path string, wantStatus int, into any) {
		t.Helper()
		resp, err := srv.Client().Get(srv.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != wantStatus {
			t.Fatalf("GET %s status = %d, want %d", path, resp.StatusCode, wantStatus)
		}
		if into != nil {
			if err := json.NewDecoder(resp.Body).Decode(into); err != nil {
				t.Fatalf("GET %s decode: %v", path, err)
			}
		}
	}

	var health HealthResult
	get(t, "/healthz", 200, &health)
	if health.Status != "ok" || len(health.Datasets) != 1 {
		t.Fatalf("health = %+v", health)
	}

	var datasets []DatasetInfo
	get(t, "/datasets", 200, &datasets)
	if len(datasets) != 1 || datasets[0].Name != "tiny" || datasets[0].NumEdges != 5 {
		t.Fatalf("datasets = %+v", datasets)
	}

	var sl SLineResult
	get(t, "/slinegraph?dataset=tiny&s=1", 200, &sl)
	if sl.CacheHit || sl.NumVertices != 5 || sl.NumEdges != 3 {
		t.Fatalf("slinegraph = %+v", sl)
	}
	get(t, "/slinegraph?dataset=tiny&s=1", 200, &sl)
	if !sl.CacheHit {
		t.Fatalf("repeated slinegraph = %+v, want cache hit", sl)
	}

	var scc SCCResult
	get(t, "/scc?dataset=tiny&s=1&labels=true", 200, &scc)
	if scc.NumComponents != 2 || len(scc.Labels) != 5 {
		t.Fatalf("scc = %+v", scc)
	}

	var dist SDistanceResult
	get(t, "/sdistance?dataset=tiny&s=1&src=0&dst=4", 200, &dist)
	if dist.Reachable || dist.Distance != -1 {
		t.Fatalf("unreachable sdistance = %+v, want distance -1", dist)
	}

	var cent struct {
		CentralityResult
		Top []ScoreEntry `json:"top"`
	}
	get(t, "/centrality?dataset=tiny&s=1&kind=harmonic&top=2", 200, &cent)
	if len(cent.Scores) != 5 || len(cent.Top) != 2 {
		t.Fatalf("centrality = %+v", cent)
	}

	// Error mapping.
	get(t, "/stats?dataset=nope", 404, nil)
	get(t, "/slinegraph?dataset=tiny&s=zero", 400, nil)
	get(t, "/slinegraph?dataset=tiny&s=1&weighted=maybe", 400, nil)
	get(t, "/scc?dataset=tiny&s=0", 400, nil)

	// /metrics is expvar JSON including the cache and endpoint counters.
	var met map[string]json.RawMessage
	get(t, "/metrics", 200, &met)
	for _, key := range []string{"cache", "endpoints", "in_flight", "queue_depth", "admission", "uptime_seconds"} {
		if _, ok := met[key]; !ok {
			t.Fatalf("/metrics missing %q: %v", key, met)
		}
	}
	var cache map[string]int64
	if err := json.Unmarshal(met["cache"], &cache); err != nil {
		t.Fatalf("cache gauge: %v", err)
	}
	if cache["hits"] < 1 || cache["misses"] < 1 {
		t.Fatalf("cache gauge = %v, want hits and misses recorded", cache)
	}
}

func TestStatsAndToplexes(t *testing.T) {
	s, _ := testServer(t, Config{})
	ctx := context.Background()
	st, err := s.Stats(ctx, "tiny")
	if err != nil {
		t.Fatalf("Stats: %v", err)
	}
	if st.Stats.NumEdges != 5 {
		t.Fatalf("stats = %+v, want 5 edges", st.Stats)
	}
	tp, err := s.Toplexes(ctx, "tiny")
	if err != nil {
		t.Fatalf("Toplexes: %v", err)
	}
	if tp.Count != len(tp.Toplexes) || tp.Count == 0 {
		t.Fatalf("toplexes = %+v", tp)
	}
}

// TestWarmStartBootEngineDetached pins the boot contract: loading runs on
// the boot-ctx-bound engine (so a signal aborts a long parallel parse), but
// the registered handles are rebound to the detached engine and keep
// serving after the boot context is cancelled.
func TestWarmStartBootEngineDetached(t *testing.T) {
	dir := t.TempDir()
	eng := nwhy.NewEngine(2)
	seed := nwhy.FromSets(twoIslands(), 8)
	if err := seed.SaveSnapshot(filepath.Join(dir, "islands.nwhyb")); err != nil {
		t.Fatalf("SaveSnapshot: %v", err)
	}
	boot, cancel := context.WithCancel(context.Background())
	reg := NewRegistry()
	if _, err := reg.WarmStart(boot, eng.WithContext(boot), dir); err != nil {
		t.Fatalf("WarmStart: %v", err)
	}
	cancel()
	g, err := reg.Get("islands")
	if err != nil {
		t.Fatalf("Get: %v", err)
	}
	if err := g.Engine().Err(); err != nil {
		t.Fatalf("warm-started handle retained the boot deadline: %v", err)
	}
	if lg := g.SLineGraph(1, true); lg == nil || lg.NumVertices() == 0 {
		t.Fatal("query on warm-started handle failed after boot ctx cancel")
	}
}
