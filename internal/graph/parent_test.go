package graph

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"nwhy/internal/parallel"
	"nwhy/internal/parallel/paralleltest"
	"nwhy/internal/sparse"
)

// This file keeps the routine BetweennessCentrality ran before the
// per-component plan and the bit-matrix kernel (commit fc63736) as the
// reference that pins the scores: every source walked over the whole
// graph's CSR rows, gather form. It is verbatim but for the names and an
// arena key of its own.

const parentBrandesStateKey = "graph.brandes.parent"

func parentBetweennessCentrality(eng *parallel.Engine, g *Graph, normalized bool) []float64 {
	n := g.NumVertices()
	sources := make([]int, n)
	for i := range sources {
		sources[i] = i
	}
	return parentBetweenness(eng, g, sources, normalized, float64(n))
}

func parentBetweenness(eng *parallel.Engine, g *Graph, sources []int, normalized bool, n float64) []float64 {
	partials := parallel.NewTLSFor(eng, func() []float64 { return make([]float64, g.NumVertices()) })
	scale := n / float64(len(sources))

	eng.For(parallel.BlockedGrain(0, len(sources), 1), func(w, lo, hi int) {
		score := *partials.Get(w)
		st := grabScratch[parentBrandesState](eng, w, parentBrandesStateKey)
		st.ensure(g.NumVertices())
		for _, src := range sources[lo:hi] {
			if g.Degree(src) > 0 {
				st.accumulate(g, src, score, scale)
			}
		}
		eng.Stash(w, parentBrandesStateKey, st)
	})

	out := make([]float64, g.NumVertices())
	partials.All(func(s *[]float64) {
		for i, v := range *s {
			out[i] += v
		}
	})
	for i := range out {
		out[i] /= 2
	}
	if normalized && n > 2 {
		norm := 1 / ((n - 1) * (n - 2))
		for i := range out {
			out[i] *= norm
		}
	}
	return out
}

type parentBrandesState struct {
	sigma []float64
	coef  []float64
	dist  []int32
	order []uint32
}

func (st *parentBrandesState) ensure(n int) {
	if len(st.dist) < n {
		st.sigma, st.coef, st.dist = make([]float64, n), make([]float64, n), make([]int32, n)
		for i := range st.dist {
			st.dist[i] = unreachable
		}
	}
}

func (st *parentBrandesState) accumulate(g *Graph, src int, score []float64, scale float64) {
	sigma, coef, dist := st.sigma, st.coef, st.dist
	sigma[src], dist[src] = 1, 0
	order := append(st.order[:0], uint32(src))
	for head := 0; head < len(order); head++ {
		u := order[head]
		next := dist[u] + 1
		for _, v := range g.Row(int(u)) {
			if dist[v] == unreachable {
				dist[v] = next
				sigma[v] = 0
				order = append(order, v)
			}
			if dist[v] == next {
				sigma[v] += sigma[u]
			}
		}
	}
	for i := len(order) - 1; i > 0; i-- {
		v := order[i]
		next := dist[v] + 1
		sum := 0.0
		for _, w := range g.Row(int(v)) {
			if dist[w] == next {
				sum += coef[w]
			}
		}
		delta := sigma[v] * sum
		coef[v] = (1 + delta) / sigma[v]
		score[v] += delta * scale
	}
	for _, v := range order {
		dist[v] = unreachable
	}
	st.order = order
}

// The three kernel choices a test can pin, for Brandes and the level
// histograms alike: the rule, and each kernel for every component whatever
// its density ("sparse" is the CSR walk, or the 64-wide sweep).
var kernelChoices = map[string]func(nc, arcs int) bool{
	"rule":   matrixPays,
	"matrix": func(int, int) bool { return true },
	"sparse": func(int, int) bool { return false },
}

// oneTwoThreeWorkers returns engines of one, two and three workers, closed
// when tb ends.
func oneTwoThreeWorkers(tb testing.TB) []*parallel.Engine {
	var engines []*parallel.Engine
	for workers := 1; workers <= 3; workers++ {
		eng := parallel.NewEngine(workers)
		tb.Cleanup(eng.Close)
		engines = append(engines, eng)
	}
	return engines
}

// sameScoresAsParent runs the parent's routine on the first engine, of one
// worker, and every kernel choice on each engine: one worker must give the
// parent's bits (the compact IDs keep every summation order), more workers
// split the sources differently and agree to 1e-12 relative.
func sameScoresAsParent(engines []*parallel.Engine, g *Graph) error {
	for _, normalized := range []bool{false, true} {
		want := parentBetweennessCentrality(engines[0], g, normalized)
		for _, eng := range engines {
			for name, dense := range kernelChoices {
				got := betweenness(eng, g, normalized, dense)
				for v := range want {
					if eng.NumWorkers() == 1 && got[v] != want[v] || math.Abs(got[v]-want[v]) > 1e-12*math.Abs(want[v]) {
						return fmt.Errorf("%s kernel, %d workers, normalized=%v: score[%d] = %v, parent's %v", name, eng.NumWorkers(), normalized, v, got[v], want[v])
					}
				}
			}
		}
	}
	return nil
}

// denseBlob adds a connected random graph on the vertices ids to el: a path
// through them in the given order plus every other pair with probability p.
func denseBlob(el *sparse.EdgeList, rng *rand.Rand, ids []uint32, p float64) {
	for i, u := range ids {
		for j := i + 1; j < len(ids); j++ {
			if j == i+1 || rng.Float64() < p {
				el.Add(u, ids[j])
			}
		}
	}
}

// blobWithTail is a dense blob on vertices [0, blob) with a path of tail
// vertices hanging off vertex 0: from a tail source the frontier is one
// vertex for tail levels (top-down) and then most of the blob (bottom-up).
func blobWithTail(blob, tail int, p float64, seed int64) *Graph {
	el := sparse.NewEdgeList(blob + tail)
	ids := make([]uint32, blob)
	for i := range ids {
		ids[i] = uint32(i)
	}
	denseBlob(el, rand.New(rand.NewSource(seed)), ids, p)
	for v, prev := blob, 0; v < blob+tail; v, prev = v+1, v {
		el.Add(uint32(prev), uint32(v))
	}
	return FromEdgeList(el, true)
}

// mixedGraph interleaves, over shuffled vertex IDs, two dense components of
// 90 and 40 vertices, a sparse tree of 60, a vertex with only a self-loop
// and 10 isolated vertices; the dense components carry a few self-loops.
func mixedGraph(seed int64) *Graph {
	rng := rand.New(rand.NewSource(seed))
	perm := rng.Perm(201)
	ids := make([]uint32, len(perm))
	for i, v := range perm {
		ids[i] = uint32(v)
	}
	el := sparse.NewEdgeList(len(ids))
	denseBlob(el, rng, ids[:90], 0.4)
	denseBlob(el, rng, ids[90:130], 0.5)
	for i := 131; i < 190; i++ {
		el.Add(ids[i], ids[130+rng.Intn(i-130)])
	}
	for _, v := range []uint32{ids[3], ids[17], ids[100], ids[190]} {
		el.Add(v, v)
	}
	return FromEdgeList(el, true)
}

func TestBetweennessSameBitsAsParent(t *testing.T) {
	graphs := map[string]*Graph{
		"path tail on a blob": blobWithTail(120, 200, 0.3, 1),
		"mixed components":    mixedGraph(2),
		"sparse random":       randomGraph(150, 200, 3),
	}
	for _, n := range []int{2, 63, 64, 65, 128, 129} {
		graphs[fmt.Sprintf("clique %d", n)] = completeGraph(n)
		graphs[fmt.Sprintf("blob %d", n)] = blobWithTail(n, 0, 0.2, int64(n))
		var star [][2]uint32
		for v := 1; v < n; v++ {
			star = append(star, [2]uint32{uint32(n / 2), uint32((n/2 + v) % n)})
		}
		graphs[fmt.Sprintf("star %d", n)] = buildGraph(n, star)
	}
	engines := oneTwoThreeWorkers(t)
	for name, g := range graphs {
		if err := sameScoresAsParent(engines, g); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}

	// The rule sends the dense components to the matrix and the rest to the
	// CSR walk, and the named graphs above exercise both level directions.
	p := planComponents(mixedGraph(2), matrixPays)
	var matrices, walks int
	for _, m := range p.matrix {
		if m != nil {
			matrices++
		} else {
			walks++
		}
	}
	if matrices != 2 || walks != 2 {
		t.Fatalf("mixed graph: %d matrix and %d CSR-walk components, want 2 and 2", matrices, walks)
	}
}

// FuzzBetweennessMatchesParent plants dense blocks and path tails in a small
// random graph (self-loops and isolated vertices included) and holds every
// kernel choice to the parent's scores.
func FuzzBetweennessMatchesParent(f *testing.F) {
	f.Add(int64(1), uint8(40), uint8(30), uint8(20), uint8(9), uint8(128))
	f.Add(int64(2), uint8(70), uint8(0), uint8(66), uint8(30), uint8(200))
	f.Add(int64(3), uint8(5), uint8(4), uint8(0), uint8(0), uint8(0))
	f.Add(int64(-4), uint8(130), uint8(90), uint8(64), uint8(64), uint8(60))
	f.Add(int64(5), uint8(1), uint8(3), uint8(1), uint8(0), uint8(255))
	engines := oneTwoThreeWorkers(f)
	f.Fuzz(func(t *testing.T, seed int64, nRaw, mRaw, blockRaw, tailRaw, pRaw uint8) {
		n := 1 + int(nRaw)%140
		rng := rand.New(rand.NewSource(seed))
		el := sparse.NewEdgeList(n)
		for i := int(mRaw); i > 0; i-- {
			el.Add(uint32(rng.Intn(n)), uint32(rng.Intn(n)))
		}
		ids := make([]uint32, n)
		for i, v := range rng.Perm(n) {
			ids[i] = uint32(v)
		}
		block := int(blockRaw) % (n + 1)
		denseBlob(el, rng, ids[:block], float64(pRaw)/255)
		for i := block; i < min(n, block+int(tailRaw)); i++ {
			el.Add(ids[max(i-1, 0)], ids[i])
		}
		if err := sameScoresAsParent(engines, FromEdgeList(el, true)); err != nil {
			t.Fatalf("seed=%d n=%d m=%d block=%d tail=%d p=%d: %v", seed, n, mRaw, block, tailRaw, pRaw, err)
		}
	})
}

// TestBetweennessCancelledAtEveryPoll cancels the engine at each of
// Brandes' polls in turn, on a graph that is all matrix and on one that
// mixes both kernels: a cancelled call returns with the engine's error, both
// kernels' states go back to the arenas as the next call expects them, and
// the next call is exact.
func TestBetweennessCancelledAtEveryPoll(t *testing.T) {
	for name, g := range map[string]*Graph{"dense": blobWithTail(60, 12, 0.4, 7), "mixed": mixedGraph(8)} {
		eng := parallel.NewEngine(2)
		want := parentBetweennessCentrality(eng, g, false)
		paralleltest.CancelAtEveryPoll(t, eng, func(e *parallel.Engine) ([]float64, error) {
			got := BetweennessCentrality(e, g, false)
			checkArenaScratchClean(t, eng)
			if err := e.Err(); err != nil {
				return nil, err
			}
			return got, nil
		}, func(got []float64) error {
			for v := range want {
				if math.Abs(got[v]-want[v]) > 1e-12*math.Abs(want[v]) {
					return fmt.Errorf("%s: score[%d] = %v, want %v", name, v, got[v], want[v])
				}
			}
			return nil
		})
		states := map[string]int{}
		for _, key := range []string{brandesStateKey, bitBrandesStateKey} {
			forEachStashed(eng, key, func(any) { states[key]++ })
		}
		if states[bitBrandesStateKey] == 0 || name == "mixed" && states[brandesStateKey] == 0 {
			t.Fatalf("%s: kernel states found in the arenas: %v", name, states)
		}
		eng.Close()
	}
}
