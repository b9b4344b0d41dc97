package graph

import (
	"container/heap"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"nwhy/internal/sparse"
)

func almostEqual(a, b float64) bool {
	return math.Abs(a-b) < 1e-9
}

// --- SSSP ---

type pqItem struct {
	v uint32
	d float64
}
type pq []pqItem

func (q pq) Len() int            { return len(q) }
func (q pq) Less(a, b int) bool  { return q[a].d < q[b].d }
func (q pq) Swap(a, b int)       { q[a], q[b] = q[b], q[a] }
func (q *pq) Push(x interface{}) { *q = append(*q, x.(pqItem)) }
func (q *pq) Pop() interface{} {
	old := *q
	x := old[len(old)-1]
	*q = old[:len(old)-1]
	return x
}

// dijkstraOracle is a textbook Dijkstra for validation.
func dijkstraOracle(g *Graph, src int) []float64 {
	n := g.NumVertices()
	dist := make([]float64, n)
	for i := range dist {
		dist[i] = Inf
	}
	dist[src] = 0
	q := &pq{{uint32(src), 0}}
	for q.Len() > 0 {
		it := heap.Pop(q).(pqItem)
		if it.d > dist[it.v] {
			continue
		}
		row := g.Row(int(it.v))
		ws := g.Weights(int(it.v))
		for k, v := range row {
			w := 1.0
			if ws != nil {
				w = ws[k]
			}
			if nd := it.d + w; nd < dist[v] {
				dist[v] = nd
				heap.Push(q, pqItem{v, nd})
			}
		}
	}
	return dist
}

func weightedRandomGraph(n, m int, seed int64) *Graph {
	rng := rand.New(rand.NewSource(seed))
	el := sparse.NewEdgeList(n)
	var weights []float64
	for i := 0; i < m; i++ {
		u, v := uint32(rng.Intn(n)), uint32(rng.Intn(n))
		if u == v {
			continue
		}
		w := 0.1 + rng.Float64()*9.9
		el.Add(u, v)
		el.Add(v, u)
		weights = append(weights, w, w)
	}
	// Dedup would misalign weights; build directly from pairs instead.
	csr := sparse.FromPairs(n, n, el.Edges, weights)
	g, err := FromCSR(csr)
	if err != nil {
		panic(err)
	}
	return g
}

func TestDeltaSteppingUnweightedMatchesBFS(t *testing.T) {
	g := randomGraph(100, 300, 4)
	want := bfsOracle(g, 0)
	r := DeltaStepping(teng, g, 0, 1)
	for v := range want {
		if want[v] == -1 {
			if !math.IsInf(r.Dist[v], 1) {
				t.Fatalf("vertex %d should be unreachable, dist %v", v, r.Dist[v])
			}
			continue
		}
		if r.Dist[v] != float64(want[v]) {
			t.Fatalf("dist[%d] = %v, want %d", v, r.Dist[v], want[v])
		}
	}
}

func TestDeltaSteppingWeightedMatchesDijkstra(t *testing.T) {
	for _, delta := range []float64{0, 0.5, 3, 100} {
		g := weightedRandomGraph(80, 240, 7)
		want := dijkstraOracle(g, 0)
		r := DeltaStepping(teng, g, 0, delta)
		for v := range want {
			if math.IsInf(want[v], 1) != math.IsInf(r.Dist[v], 1) {
				t.Fatalf("delta=%v: reachability mismatch at %d", delta, v)
			}
			if !math.IsInf(want[v], 1) && math.Abs(r.Dist[v]-want[v]) > 1e-9 {
				t.Fatalf("delta=%v: dist[%d] = %v, want %v", delta, v, r.Dist[v], want[v])
			}
		}
	}
}

func TestDeltaSteppingPropertyAgainstDijkstra(t *testing.T) {
	f := func(seed int64) bool {
		g := weightedRandomGraph(40, 100, seed)
		want := dijkstraOracle(g, 0)
		r := DeltaStepping(teng, g, 0, 0)
		for v := range want {
			if math.IsInf(want[v], 1) != math.IsInf(r.Dist[v], 1) {
				return false
			}
			if !math.IsInf(want[v], 1) && math.Abs(r.Dist[v]-want[v]) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestSSSPPath(t *testing.T) {
	g := pathGraph(6)
	r := DeltaStepping(teng, g, 0, 1)
	path := r.PathTo(5)
	want := []uint32{0, 1, 2, 3, 4, 5}
	if len(path) != len(want) {
		t.Fatalf("path = %v", path)
	}
	for i := range want {
		if path[i] != want[i] {
			t.Fatalf("path = %v, want %v", path, want)
		}
	}
	if r.PathTo(0) == nil || len(r.PathTo(0)) != 1 {
		t.Fatal("path to source should be the source alone")
	}
}

func TestSSSPPathUnreachable(t *testing.T) {
	g := buildGraph(4, [][2]uint32{{0, 1}})
	r := DeltaStepping(teng, g, 0, 1)
	if r.PathTo(3) != nil {
		t.Fatal("path to unreachable vertex should be nil")
	}
}

func TestSSSPParentsConsistent(t *testing.T) {
	g := weightedRandomGraph(60, 200, 13)
	r := DeltaStepping(teng, g, 0, 0)
	for v := range r.Dist {
		if v == 0 || math.IsInf(r.Dist[v], 1) {
			continue
		}
		p := r.Parent[v]
		if p < 0 {
			t.Fatalf("reachable vertex %d has no parent", v)
		}
		// dist[v] == dist[p] + w(p,v) for some arc p->v.
		found := false
		row := g.Row(int(p))
		ws := g.Weights(int(p))
		for k, u := range row {
			if int(u) == v && almostEqual(r.Dist[p]+ws[k], r.Dist[v]) {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("parent edge (%d,%d) does not certify dist", p, v)
		}
	}
}

// --- Betweenness ---

// bcOracle computes betweenness by enumerating all shortest paths via BFS
// path counting (same math as Brandes but trusted-simple).
func bcOracle(g *Graph, normalized bool) []float64 {
	n := g.NumVertices()
	score := make([]float64, n)
	for s := 0; s < n; s++ {
		sigma := make([]float64, n)
		dist := make([]int32, n)
		delta := make([]float64, n)
		for i := range dist {
			dist[i] = -1
		}
		sigma[s] = 1
		dist[s] = 0
		order := []uint32{uint32(s)}
		for h := 0; h < len(order); h++ {
			u := order[h]
			for _, v := range g.Row(int(u)) {
				if dist[v] == -1 {
					dist[v] = dist[u] + 1
					order = append(order, v)
				}
				if dist[v] == dist[u]+1 {
					sigma[v] += sigma[u]
				}
			}
		}
		for i := len(order) - 1; i > 0; i-- {
			w := order[i]
			for _, v := range g.Row(int(w)) {
				if dist[v] == dist[w]-1 {
					delta[v] += sigma[v] / sigma[w] * (1 + delta[w])
				}
			}
			score[w] += delta[w]
		}
	}
	for i := range score {
		score[i] /= 2
	}
	if normalized && n > 2 {
		for i := range score {
			score[i] /= float64(n-1) * float64(n-2)
		}
	}
	return score
}

func TestBetweennessPathGraph(t *testing.T) {
	// On a path 0-1-2-3-4, vertex 2 lies on paths {0,1}x{3,4} plus
	// (1,3): BC(2) = 4... counting unordered pairs through 2: (0,3),(0,4),(1,3),(1,4) = 4.
	got := BetweennessCentrality(teng, pathGraph(5), false)
	want := []float64{0, 3, 4, 3, 0}
	for i := range want {
		if !almostEqual(got[i], want[i]) {
			t.Fatalf("BC = %v, want %v", got, want)
		}
	}
}

func TestBetweennessCompleteGraphZero(t *testing.T) {
	got := BetweennessCentrality(teng, completeGraph(6), false)
	for i, v := range got {
		if !almostEqual(v, 0) {
			t.Fatalf("BC[%d] = %v on complete graph, want 0", i, v)
		}
	}
}

func TestBetweennessStar(t *testing.T) {
	// Star with hub 0 and 5 leaves: hub BC = C(5,2) = 10.
	var pairs [][2]uint32
	for i := 1; i <= 5; i++ {
		pairs = append(pairs, [2]uint32{0, uint32(i)})
	}
	got := BetweennessCentrality(teng, buildGraph(6, pairs), false)
	if !almostEqual(got[0], 10) {
		t.Fatalf("hub BC = %v, want 10", got[0])
	}
	norm := BetweennessCentrality(teng, buildGraph(6, pairs), true)
	if !almostEqual(norm[0], 10.0/(5*4)) {
		t.Fatalf("normalized hub BC = %v", norm[0])
	}
}

func TestBetweennessMatchesOracle(t *testing.T) {
	f := func(seed int64) bool {
		g := randomGraph(30, 60, seed)
		got := BetweennessCentrality(teng, g, false)
		want := bcOracle(g, false)
		for i := range want {
			if math.Abs(got[i]-want[i]) > 1e-6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

// --- Closeness, harmonic, eccentricity ---

func TestClosenessPathEndpoints(t *testing.T) {
	g := pathGraph(5) // distances from 0: 0+1+2+3+4 = 10
	got := ClosenessCentrality(teng, g)
	if !almostEqual(got[0], 4.0/10.0) {
		t.Fatalf("closeness[0] = %v, want 0.4", got[0])
	}
	// Middle vertex: distances 2+1+0+1+2 = 6.
	if !almostEqual(got[2], 4.0/6.0) {
		t.Fatalf("closeness[2] = %v", got[2])
	}
}

func TestClosenessDisconnectedScaled(t *testing.T) {
	// Two components of sizes 2 and 3 over n=5: Wasserman–Faust scaling.
	g := buildGraph(5, [][2]uint32{{0, 1}, {2, 3}, {3, 4}})
	got := ClosenessCentrality(teng, g)
	// Vertex 0: reaches 1 at distance 1. c = (1/1) * (1/4) = 0.25.
	if !almostEqual(got[0], 0.25) {
		t.Fatalf("closeness[0] = %v, want 0.25", got[0])
	}
	// Vertex 3: reaches 2,4 at distance 1 each. c = (2/2)*(2/4) = 0.5.
	if !almostEqual(got[3], 0.5) {
		t.Fatalf("closeness[3] = %v, want 0.5", got[3])
	}
}

func TestClosenessIsolatedVertexZero(t *testing.T) {
	g := buildGraph(3, [][2]uint32{{0, 1}})
	if got := ClosenessCentrality(teng, g); got[2] != 0 {
		t.Fatalf("isolated closeness = %v", got[2])
	}
}

func TestHarmonicPath(t *testing.T) {
	g := pathGraph(3)
	got := HarmonicClosenessCentrality(teng, g)
	// Vertex 0: 1/1 + 1/2 = 1.5, normalized by n-1=2 -> 0.75.
	if !almostEqual(got[0], 0.75) {
		t.Fatalf("harmonic[0] = %v", got[0])
	}
	// Vertex 1: 1 + 1 = 2 -> 1.0.
	if !almostEqual(got[1], 1.0) {
		t.Fatalf("harmonic[1] = %v", got[1])
	}
}

func TestHarmonicDisconnected(t *testing.T) {
	g := buildGraph(4, [][2]uint32{{0, 1}})
	got := HarmonicClosenessCentrality(teng, g)
	if !almostEqual(got[0], 1.0/3.0) {
		t.Fatalf("harmonic[0] = %v, want 1/3", got[0])
	}
	if got[2] != 0 {
		t.Fatalf("isolated harmonic = %v", got[2])
	}
}

func TestEccentricityPath(t *testing.T) {
	g := pathGraph(5)
	got := Eccentricity(teng, g)
	want := []float64{4, 3, 2, 3, 4}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ecc = %v, want %v", got, want)
		}
	}
	if EccentricityOf(g, 0) != 4 {
		t.Fatalf("EccentricityOf(0) = %v", EccentricityOf(g, 0))
	}
}

func TestEccentricityDisconnectedPerComponent(t *testing.T) {
	g := buildGraph(5, [][2]uint32{{0, 1}, {2, 3}, {3, 4}})
	got := Eccentricity(teng, g)
	if got[0] != 1 || got[2] != 2 || got[3] != 1 {
		t.Fatalf("ecc = %v", got)
	}
}

// --- PageRank ---

func TestPageRankSumsToOne(t *testing.T) {
	g := randomGraph(100, 400, 8)
	pr := PageRank(teng, g, 0.85, 1e-10, 200)
	sum := 0.0
	for _, v := range pr {
		sum += v
	}
	if math.Abs(sum-1) > 1e-6 {
		t.Fatalf("PageRank sums to %v", sum)
	}
}

func TestPageRankCycleUniform(t *testing.T) {
	var pairs [][2]uint32
	const n = 10
	for i := 0; i < n; i++ {
		pairs = append(pairs, [2]uint32{uint32(i), uint32((i + 1) % n)})
	}
	pr := PageRank(teng, buildGraph(n, pairs), 0.85, 1e-12, 500)
	for i, v := range pr {
		if math.Abs(v-0.1) > 1e-6 {
			t.Fatalf("cycle PageRank[%d] = %v, want 0.1", i, v)
		}
	}
}

func TestPageRankStarHubHighest(t *testing.T) {
	var pairs [][2]uint32
	for i := 1; i <= 20; i++ {
		pairs = append(pairs, [2]uint32{0, uint32(i)})
	}
	pr := PageRank(teng, buildGraph(21, pairs), 0.85, 1e-10, 200)
	for i := 1; i <= 20; i++ {
		if pr[0] <= pr[i] {
			t.Fatalf("hub rank %v not above leaf %v", pr[0], pr[i])
		}
	}
}

func TestPageRankDanglingMass(t *testing.T) {
	// Graph with an isolated (dangling, degree-0) vertex must still sum to 1.
	g := buildGraph(3, [][2]uint32{{0, 1}})
	pr := PageRank(teng, g, 0.85, 1e-12, 500)
	sum := pr[0] + pr[1] + pr[2]
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("sum = %v", sum)
	}
}

// --- k-core ---

func TestCorenessCompleteGraph(t *testing.T) {
	core := Coreness(completeGraph(5))
	for i, c := range core {
		if c != 4 {
			t.Fatalf("coreness[%d] = %d, want 4", i, c)
		}
	}
}

func TestCorenessPath(t *testing.T) {
	core := Coreness(pathGraph(5))
	for i, c := range core {
		if c != 1 {
			t.Fatalf("coreness[%d] = %d, want 1", i, c)
		}
	}
}

func TestCorenessTriangleWithTail(t *testing.T) {
	// Triangle 0-1-2 plus tail 2-3: coreness 2,2,2,1.
	g := buildGraph(4, [][2]uint32{{0, 1}, {1, 2}, {0, 2}, {2, 3}})
	core := Coreness(g)
	want := []int{2, 2, 2, 1}
	for i := range want {
		if core[i] != want[i] {
			t.Fatalf("coreness = %v, want %v", core, want)
		}
	}
}

func TestCorenessInvariantDegreeBound(t *testing.T) {
	f := func(seed int64) bool {
		g := randomGraph(50, 150, seed)
		core := Coreness(g)
		for v, c := range core {
			if c > g.Degree(v) {
				return false
			}
			// Each vertex must have >= c neighbors with coreness >= c.
			cnt := 0
			for _, u := range g.Row(v) {
				if core[u] >= c {
					cnt++
				}
			}
			if cnt < c {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}
