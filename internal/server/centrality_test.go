package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"slices"
	"sort"
	"testing"

	"nwhy"
	"nwhy/internal/core"
	"nwhy/internal/gen"
)

// sLineOracle is the s-line graph of h by brute force: hyperedges e and f
// are adjacent when they share at least s nodes.
func sLineOracle(h *core.Hypergraph, s int) [][]int {
	adj := make([][]int, h.NumEdges())
	for e := range adj {
		for f := e + 1; f < len(adj); f++ {
			shared := 0
			for _, v := range h.EdgeIncidence(e) {
				if _, ok := slices.BinarySearch(h.EdgeIncidence(f), v); ok {
					shared++
				}
			}
			if shared >= s {
				adj[e], adj[f] = append(adj[e], f), append(adj[f], e)
			}
		}
	}
	return adj
}

// levelCounts runs one BFS from src over adj and returns hist[d], the
// number of vertices at hop distance d, and every vertex's distance (-1 if
// unreached).
func levelCounts(adj [][]int, src int) (hist []int64, dist []int) {
	dist = make([]int, len(adj))
	for i := range dist {
		dist[i] = -1
	}
	dist[src] = 0
	hist = []int64{1}
	for queue := []int{src}; len(queue) > 0; queue = queue[1:] {
		u := queue[0]
		for _, v := range adj[u] {
			if dist[v] < 0 {
				dist[v] = dist[u] + 1
				if dist[v] == len(hist) {
					hist = append(hist, 0)
				}
				hist[dist[v]]++
				queue = append(queue, v)
			}
		}
	}
	return hist, dist
}

// TestCentralityOnMatrixComponent serves closeness, harmonic closeness and
// eccentricity on an s-line graph whose largest component the rule gives a
// bit matrix (TestCentralityKinds' tiny dataset never builds one), and holds
// the full vectors and the top-10 rows to a per-source BFS oracle, bit for
// bit.
func TestCentralityOnMatrixComponent(t *testing.T) {
	const s = 2
	h := gen.Community(gen.CommunityConfig{NumEdges: 400, NumNodes: 120, MeanEdgeSize: 7, SizeSkew: 1.6, MemberSkew: 0.5, Seed: 30})
	adj := sLineOracle(h, s)
	n := len(adj)
	oracle := map[CentralityKind][]float64{CentralityCloseness: make([]float64, n), CentralityHarmonic: make([]float64, n), CentralityEccentricity: make([]float64, n)}
	nc, arcs := 0, 0 // the largest component, as graph.matrixPays is asked about it
	for src := range adj {
		hist, dist := levelCounts(adj, src)
		var reached, sum int64
		harmonic := 0.0
		for d, c := range hist {
			reached, sum = reached+c, sum+int64(d)*c
			if d > 0 {
				harmonic += float64(c) / float64(d)
			}
		}
		if reached > 1 {
			oracle[CentralityCloseness][src] = float64(reached-1) / float64(sum) * (float64(reached-1) / float64(n-1))
		}
		oracle[CentralityHarmonic][src] = harmonic / float64(n-1)
		oracle[CentralityEccentricity][src] = float64(len(hist) - 1)
		if int(reached) > nc {
			nc, arcs = int(reached), 0
			for v := range adj {
				if dist[v] >= 0 {
					arcs += len(adj[v])
				}
			}
		}
	}
	if nc < 65 || nc*((nc+63)/64) > arcs/2 {
		t.Fatalf("largest component: %d vertices, %d arcs; want more than a word of them and a matrix by the rule", nc, arcs)
	}
	t.Logf("s = %d: %d hyperedges, the largest component %d of them with %d arcs", s, n, nc, arcs)

	eng := nwhy.NewEngine(2)
	defer eng.Close()
	reg := NewRegistry()
	reg.Add("comm", nwhy.Wrap(h).WithEngine(eng), "")
	srv, err := New(Config{Engine: eng}, reg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	for kind, want := range oracle {
		for _, top := range []int{0, 10} {
			resp, err := ts.Client().Get(fmt.Sprintf("%s/centrality?dataset=comm&s=%d&kind=%s&top=%d", ts.URL, s, kind, top))
			if err != nil {
				t.Fatal(err)
			}
			var got centralityHTTPResult
			err = json.NewDecoder(resp.Body).Decode(&got)
			resp.Body.Close()
			if err != nil || resp.StatusCode != http.StatusOK {
				t.Fatalf("%s top=%d: status %d, decode err %v", kind, top, resp.StatusCode, err)
			}
			if !slices.Equal(got.Scores, want) {
				t.Fatalf("%s top=%d: scores differ from the per-source BFS oracle", kind, top)
			}
			if top == 0 {
				continue
			}
			rows := make([]ScoreEntry, n)
			for v, x := range want {
				rows[v] = ScoreEntry{ID: v, Score: x}
			}
			sort.SliceStable(rows, func(i, j int) bool { return rows[i].Score > rows[j].Score })
			if !slices.Equal(got.Top, rows[:top]) {
				t.Fatalf("%s top=%d: rows %v, want %v", kind, top, got.Top, rows[:top])
			}
		}
	}
}
