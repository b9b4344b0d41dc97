package graph

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sync/atomic"
	"testing"

	"nwhy/internal/parallel"
	"nwhy/internal/parallel/paralleltest"
	"nwhy/internal/sparse"
)

// ringWithChords builds k non-isolated vertices at the even IDs of a
// 2k+1-vertex graph (the odd IDs and the last stay isolated): a ring through
// all of them plus k random chords. k = 1 is a single self-loop, k = 2 one
// edge.
func ringWithChords(k int, seed int64) *Graph {
	rng := rand.New(rand.NewSource(seed))
	el := sparse.NewEdgeList(2*k + 1)
	for i := 0; i < k; i++ {
		el.Add(uint32(2*i), uint32(2*((i+1)%k)))
		el.Add(uint32(2*rng.Intn(k)), uint32(2*rng.Intn(k)))
	}
	return FromEdgeList(el, true)
}

// TestLevelHistogramsMatchPerSourceBFS pins both histogram kernels to one
// BFS per source across the shapes that stress them: more levels than bits,
// one level, components of different depth, nothing to sweep, source counts
// around the batch width, cliques and dense blobs around the word width (64
// and 128 leave no padding bits), and a matrix component beside a path and
// isolated vertices. Under every kernel choice and worker count, histograms
// — hence closeness sums and eccentricities — must be integer-exact, every
// non-isolated source reported exactly once, and the three scores the same
// bits as the sweep's; harmonic closeness is within 1e-12 of the per-pair
// sum.
func TestLevelHistogramsMatchPerSourceBFS(t *testing.T) {
	star := sparse.NewEdgeList(40)
	for v := 1; v < 40; v++ {
		star.Add(0, uint32(v))
	}
	twoComps := sparse.NewEdgeList(90)
	for v := 0; v+1 < 70; v++ { // a 70-path ...
		twoComps.Add(uint32(v), uint32(v+1))
	}
	for v := 70; v < 90; v++ { // ... beside a 20-clique
		for u := 70; u < v; u++ {
			twoComps.Add(uint32(u), uint32(v))
		}
	}
	mixed := sparse.NewEdgeList(290) // a matrix component, a 70-path and 20 isolated vertices
	blob := make([]uint32, 200)
	for i := range blob {
		blob[i] = uint32(i)
	}
	denseBlob(mixed, rand.New(rand.NewSource(9)), blob, 0.2)
	for v := 210; v+1 < 280; v++ {
		mixed.Add(uint32(v), uint32(v+1))
	}
	cases := map[string]*Graph{
		"path200":     pathGraph(200),
		"star":        FromEdgeList(star, true),
		"twoComps":    FromEdgeList(twoComps, true),
		"allIsolated": FromEdgeList(sparse.NewEdgeList(10), true),
	}
	for _, k := range []int{1, 63, 64, 65, 130} {
		cases[fmt.Sprintf("sources%d", k)] = ringWithChords(k, int64(k))
	}
	onMatrix := map[string]*Graph{
		"clique64":      completeGraph(64),
		"clique65":      completeGraph(65),
		"clique130":     completeGraph(130),
		"gnp300":        blobWithTail(300, 0, 0.15, 5),
		"blob128":       blobWithTail(128, 0, 0.1, 6),
		"matrixPathIso": FromEdgeList(mixed, true),
	}
	for name, g := range onMatrix {
		if !slices.ContainsFunc(planComponents(g, matrixPays).matrix, func(m *bitMatrix) bool { return m != nil }) {
			t.Fatalf("%s: the rule gives no component a matrix", name)
		}
		cases[name] = g
	}
	for name, g := range cases {
		n := g.NumVertices()
		want := make([][]int64, n)
		wantHarmonic := make([]float64, n)
		dist := make([]int32, n)
		for src := 0; src < n; src++ {
			for _, v := range bfsDistances(g, src, dist, nil) {
				if int(dist[v]) == len(want[src]) {
					want[src] = append(want[src], 0)
				}
				want[src][dist[v]]++
				if dist[v] > 0 {
					wantHarmonic[src] += 1 / float64(dist[v])
				}
			}
			if n > 1 {
				wantHarmonic[src] /= float64(n - 1)
			}
		}
		for workers := 1; workers <= 3; workers++ {
			eng := parallel.NewEngine(workers)
			sweepClo, sweepHarmonic, sweepEcc := centralitiesWith(eng, g, kernelChoices["sparse"])
			for kernel, dense := range kernelChoices {
				got, calls := histogramsWith(eng, g, dense)
				nonIsolated := 0
				for src := 0; src < n; src++ {
					switch {
					case g.Degree(src) > 0:
						nonIsolated++
						if !slices.Equal(got[src], want[src]) {
							t.Fatalf("%s %s workers=%d: hist[%d] = %v, want %v", name, kernel, workers, src, got[src], want[src])
						}
					case got[src] != nil:
						t.Fatalf("%s %s workers=%d: isolated vertex %d reported %v", name, kernel, workers, src, got[src])
					}
				}
				if calls != nonIsolated {
					t.Fatalf("%s %s workers=%d: %d sources reported, want %d", name, kernel, workers, calls, nonIsolated)
				}
				clo, harmonic, ecc := centralitiesWith(eng, g, dense)
				for src := 0; src < n; src++ {
					if clo[src] != sweepClo[src] || harmonic[src] != sweepHarmonic[src] || ecc[src] != sweepEcc[src] {
						t.Fatalf("%s %s workers=%d: scores of %d = %v %v %v, the sweep's %v %v %v", name, kernel, workers, src, clo[src], harmonic[src], ecc[src], sweepClo[src], sweepHarmonic[src], sweepEcc[src])
					}
				}
			}
			clo, harmonic, ecc := ClosenessCentrality(eng, g), HarmonicClosenessCentrality(eng, g), Eccentricity(eng, g)
			for src := 0; src < n; src++ {
				if ecc[src] != float64(len(want[src])-1) || ecc[src] != EccentricityOf(g, src) {
					t.Fatalf("%s workers=%d: ecc[%d] = %v, want %d", name, workers, src, ecc[src], len(want[src])-1)
				}
				if clo[src] != ClosenessCentralityOf(g, src) {
					t.Fatalf("%s workers=%d: closeness[%d] = %v, want %v", name, workers, src, clo[src], ClosenessCentralityOf(g, src))
				}
				if math.Abs(harmonic[src]-wantHarmonic[src]) > 1e-12 {
					t.Fatalf("%s workers=%d: harmonic[%d] = %v, want %v", name, workers, src, harmonic[src], wantHarmonic[src])
				}
			}
			checkArenaScratchClean(t, eng)
			eng.Close()
		}
	}
}

// histogramsWith runs levelHistograms under the kernel choice dense and
// returns a copy of every reported histogram, nil for a source not
// reported, and the number of reports.
func histogramsWith(eng *parallel.Engine, g *Graph, dense func(nc, arcs int) bool) ([][]int64, int) {
	got := make([][]int64, g.NumVertices())
	var calls atomic.Int64
	levelHistograms(eng, g, dense, func(src int, hist []int64) {
		calls.Add(1)
		got[src] = slices.Clone(hist)
	})
	return got, int(calls.Load())
}

// centralitiesWith is ClosenessCentrality, HarmonicClosenessCentrality and
// Eccentricity under the kernel choice dense, from one levelHistograms call.
func centralitiesWith(eng *parallel.Engine, g *Graph, dense func(nc, arcs int) bool) (clo, harm, ecc []float64) {
	n := g.NumVertices()
	clo, harm, ecc = make([]float64, n), make([]float64, n), make([]float64, n)
	levelHistograms(eng, g, dense, func(src int, hist []int64) {
		clo[src], harm[src], ecc[src] = closeness(hist, n), harmonic(hist, n), float64(len(hist)-1)
	})
	return clo, harm, ecc
}

// checkArenaScratchClean pops every traversal scratch stashed in eng's
// arenas, checks the state each must be in between calls (ShortestPath marks
// and sweep words all zero, Brandes distances all unreachable, no list
// left non-empty; the two bit-matrix states have no such invariant beyond
// the sizes ensure compares), puts them back and returns how many it saw.
func checkArenaScratchClean(t *testing.T, eng *parallel.Engine) int {
	t.Helper()
	allZero := func(what string, words []uint64) {
		for v, x := range words {
			if x != 0 {
				t.Fatalf("stashed sweep scratch has %s[%d] = %#x", what, v, x)
			}
		}
	}
	found := 0
	for _, key := range []string{pathScratchKey, sweepScratchKey, bitLevelStateKey, brandesStateKey, bitBrandesStateKey} {
		forEachStashed(eng, key, func(v any) {
			found++
			switch sc := v.(type) {
			case *pathScratch:
				for v, m := range sc.mark {
					if m != 0 {
						t.Fatalf("stashed path scratch has mark[%d] = %d", v, m)
					}
				}
				if len(sc.visited) != 0 {
					t.Fatalf("stashed path scratch lists %d visited vertices", len(sc.visited))
				}
			case *sweepScratch:
				allZero("seen", sc.seen)
				allZero("front", sc.front)
				allZero("next", sc.next)
				if len(sc.cur)+len(sc.nxt)+len(sc.visited) != 0 {
					t.Fatalf("stashed sweep scratch has non-empty lists")
				}
			case *bitLevelState:
				if len(sc.cur) != len(sc.visited) || len(sc.next) != len(sc.visited) {
					t.Fatalf("stashed bit-matrix level state has bitsets of %d, %d and %d words", len(sc.visited), len(sc.cur), len(sc.next))
				}
			case *brandesState:
				for v, d := range sc.dist {
					if d != unreachable {
						t.Fatalf("stashed Brandes state has dist[%d] = %d", v, d)
					}
				}
			case *bitBrandesState:
				if len(sc.sigma) != len(sc.coef) {
					t.Fatalf("stashed bit-matrix Brandes state has %d sigma and %d coef slots", len(sc.sigma), len(sc.coef))
				}
			}
		})
	}
	return found
}

// forEachStashed pops every object stashed under key in eng's arenas, calls
// fn on each and puts them back.
func forEachStashed(eng *parallel.Engine, key string, fn func(v any)) {
	for w := 0; w < eng.NumWorkers(); w++ {
		var held []any
		for v, ok := eng.Grab(w, key); ok; v, ok = eng.Grab(w, key) {
			held = append(held, v)
		}
		for _, v := range held {
			fn(v)
			eng.Stash(w, key, v)
		}
	}
}

// allocatedBytes reports what the process allocated while fn ran.
func allocatedBytes(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestCancelledTraversalsLeaveEngineReusable cancels each of the three
// traversals, and the level histograms on the bit matrix, before it starts
// and between any two of its first polls. A
// cancelled run must leave the engine reporting the context's error, return
// its scratch to the arenas in the between-calls state, and not disturb the
// next run on the same engine, which must be exact.
func TestCancelledTraversalsLeaveEngineReusable(t *testing.T) {
	eng := parallel.NewEngine(2)
	defer eng.Close()
	// A 150-path (many levels, many polls) joined to a random blob.
	el := sparse.NewEdgeList(230)
	for v := 0; v+1 < 150; v++ {
		el.Add(uint32(v), uint32(v+1))
	}
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 300; i++ {
		el.Add(uint32(149+rng.Intn(81)), uint32(149+rng.Intn(81)))
	}
	g := FromEdgeList(el, true)
	n := g.NumVertices()

	dist := make([]int32, n)
	bfsDistances(g, 0, dist, nil)
	wantBC := bcOracle(g, false)
	wantHarmonic := HarmonicClosenessCentrality(eng, g)

	kernels := map[string]func(e *parallel.Engine) error{
		"ShortestPath": func(e *parallel.Engine) error {
			if got := len(ShortestPath(e, g, 0, n-1)) - 1; got != int(dist[n-1]) {
				return fmt.Errorf("distance = %d, want %d", got, dist[n-1])
			}
			return nil
		},
		"Harmonic": func(e *parallel.Engine) error {
			if got := HarmonicClosenessCentrality(e, g); !slices.Equal(got, wantHarmonic) {
				return errors.New("harmonic closeness differs from the uncancelled run")
			}
			return nil
		},
		"HarmonicOnMatrix": func(e *parallel.Engine) error {
			if _, got, _ := centralitiesWith(e, g, kernelChoices["matrix"]); !slices.Equal(got, wantHarmonic) {
				return errors.New("harmonic closeness on the bit matrix differs from the uncancelled sweep")
			}
			return nil
		},
		"Betweenness": func(e *parallel.Engine) error {
			for v, got := range BetweennessCentrality(e, g, false) {
				if math.Abs(got-wantBC[v]) > 1e-9*(1+wantBC[v]) {
					return fmt.Errorf("betweenness[%d] = %v, want %v", v, got, wantBC[v])
				}
			}
			return nil
		},
	}
	for name, kernel := range kernels {
		cancelled := 0
		for polls := int64(0); polls < 60; polls++ {
			ceng := eng.WithContext(paralleltest.NewCountdownCtx(polls))
			err := kernel(ceng)
			if ceng.Err() != nil {
				cancelled++
			} else if err != nil {
				t.Fatalf("%s: run that outlived %d polls: %v", name, polls, err)
			}
			checkArenaScratchClean(t, eng)
			if err := kernel(eng); err != nil {
				t.Fatalf("%s: run after a cancellation at poll %d: %v", name, polls, err)
			}
		}
		if cancelled < 30 {
			t.Fatalf("%s: only %d of 60 runs were cancelled; the test no longer cancels mid-run", name, cancelled)
		}
	}
	if checkArenaScratchClean(t, eng) < 4 {
		t.Fatal("traversal scratch was not stashed back into the engine arenas")
	}
}

// TestBetweennessAllocatesPerWorkerNotPerSource pins the allocation shape
// of Brandes under both kernels: the plan, score partials and traversal
// state per worker, nothing per source. On the CSR walk one state per source
// is 28 KB x 1000 sources; on the bit matrix (128 KB here) one level bitset
// per source is 128 B x 1000 sources, as much again as the matrix. What the
// engine allocates to schedule n grains is measured and set aside.
func TestBetweennessAllocatesPerWorkerNotPerSource(t *testing.T) {
	eng := parallel.NewEngine(2)
	defer eng.Close()
	const n = 1000
	grains := allocatedBytes(func() { eng.For(parallel.BlockedGrain(0, n, 1), func(int, int, int) {}) })
	dense := blobWithTail(n, 0, 0.1, 11)
	matrix := planComponents(dense, matrixPays).matrix
	if len(matrix) != 1 || matrix[0] == nil {
		t.Fatal("the dense graph is not one matrix component")
	}
	for name, c := range map[string]struct {
		g     *Graph
		bound uint64
	}{
		"CSR walk":   {randomGraph(n, 4000, 11), 1 << 20},
		"bit matrix": {dense, uint64(8*len(matrix[0].rows) + 96*n + 16<<10)},
	} {
		if got := allocatedBytes(func() { BetweennessCentrality(eng, c.g, false) }); got >= grains+c.bound {
			t.Fatalf("%s: BetweennessCentrality on %d vertices allocated %d bytes, want < %d beside the %d of scheduling", name, n, got, c.bound, grains)
		}
	}
}

// TestBetweennessSparseGiantAllocatesLinear holds the rule to its memory
// promise: a matrix is never larger than the CSR column array of its
// component, so a 100 000-vertex sparse graph (whose giant component as a
// matrix would be 1.2 GB) gets none, and a call — cancelled after a few
// sources, a full run is hours — allocates the O(n) plan, partials and CSR
// walk states only.
func TestBetweennessSparseGiantAllocatesLinear(t *testing.T) {
	const n = 100000
	g := randomGraph(n, 4*n, 5)
	p := planComponents(g, matrixPays)
	for c, m := range p.matrix {
		if m == nil {
			continue
		}
		arcs := 0
		for _, v := range m.ids {
			arcs += g.Degree(int(v))
		}
		if len(m.ids) > 64 || 8*len(m.rows) > 4*arcs {
			t.Fatalf("component %d: %d vertices, %d arcs, a matrix of %d words", c, len(m.ids), arcs, len(m.rows))
		}
	}
	eng := parallel.NewEngine(2)
	defer eng.Close()
	ceng := eng.WithContext(paralleltest.NewCountdownCtx(64))
	got := allocatedBytes(func() { BetweennessCentrality(ceng, g, false) })
	if ceng.Err() == nil {
		t.Fatal("the run was not cancelled")
	}
	if got >= 192*n {
		t.Fatalf("BetweennessCentrality on a sparse %d-vertex graph allocated %d bytes, want < %d", n, got, 192*n)
	}
}

// TestBetweennessAsymmetricAdjacencyTerminates: FromCSR accepts an
// adjacency that is not symmetric. Its scores are not defined, but a source
// whose levels never reach a vertex labelled into its component must not
// spin, under either kernel.
func TestBetweennessAsymmetricAdjacencyTerminates(t *testing.T) {
	// 0 -> 1 -> 2 -> 0 and 3 -> 0: from 0, 1 or 2 vertex 3 stays unreached.
	c := sparse.FromPairs(4, 4, []sparse.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 0}, {U: 3, V: 0}}, nil)
	g, err := FromCSR(c)
	if err != nil {
		t.Fatal(err)
	}
	if g.IsSymmetric() {
		t.Fatal("the adjacency is symmetric")
	}
	for name, dense := range kernelChoices {
		if got := betweenness(teng, g, false, dense); len(got) != 4 {
			t.Fatalf("%s kernel: %d scores", name, len(got))
		}
	}
}
