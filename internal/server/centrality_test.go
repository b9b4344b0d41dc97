package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"sort"
	"strings"
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

// getBody GETs url and returns the body of a 200 reply.
func getBody(t *testing.T, ts *httptest.Server, url string) []byte {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d, %v: %s", url, resp.StatusCode, err, body)
	}
	return body
}

// TestCentralityRepeatIsByteIdentical asks every memoised kind twice, over
// HTTP, on a dataset of two s-components: the repeat, served from the
// handle's memo, is the same bytes as the first reply and the facade's
// vector (one worker, so betweenness repeats bit for bit). The HTTP layer
// rewrites scores in place (+Inf to -1), and a Server caller may write into
// its reply too, so each gets its own copy: overwriting one reply leaves
// the next untouched.
func TestCentralityRepeatIsByteIdentical(t *testing.T) {
	eng := nwhy.NewEngine(1)
	defer eng.Close()
	s, _ := testServer(t, Config{Engine: eng})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	// Both handles cached first, so every reply below says cache_hit.
	getBody(t, ts, "/slinegraph?dataset=tiny&s=1")
	getBody(t, ts, "/slinegraph?dataset=tiny&s=1&weighted=true")
	g, err := s.Registry().Get("tiny")
	if err != nil {
		t.Fatal(err)
	}
	lg, wlg := g.SLineGraph(1, true), g.SLineGraphWeighted(1)
	want := map[string][]float64{
		"kind=eccentricity":                 lg.SEccentricity(),
		"kind=closeness":                    lg.SClosenessCentrality(),
		"kind=harmonic":                     lg.SHarmonicClosenessCentrality(),
		"kind=betweenness&normalized=true":  lg.SBetweennessCentrality(true),
		"kind=eccentricity&weighted=true":   wlg.SEccentricityWeighted(),
		"kind=harmonic&weighted=true":       wlg.SHarmonicClosenessCentralityWeighted(),
		"kind=betweenness&weighted=true":    wlg.SBetweennessCentralityWeighted(false),
		"kind=closeness&weighted=true":      wlg.SClosenessCentralityWeighted(),
		"kind=betweenness&normalized=false": lg.SBetweennessCentrality(false),
	}
	for q, scores := range want {
		url := "/centrality?dataset=tiny&s=1&" + q
		first, again := getBody(t, ts, url), getBody(t, ts, url)
		if !bytes.Equal(first, again) {
			t.Fatalf("%s: the repeat differs:\n%s\n%s", q, first, again)
		}
		var got CentralityResult
		if err := json.Unmarshal(first, &got); err != nil || !slices.Equal(got.Scores, scores) {
			t.Fatalf("%s: scores %v (%v), want the facade's %v", q, got.Scores, err, scores)
		}
	}

	ctx := context.Background()
	req := CentralityRequest{Dataset: "tiny", S: 1, Kind: CentralityEccentricity}
	out, err := s.Centrality(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	for i := range out.Scores {
		out.Scores[i] = -1
	}
	if again, err := s.Centrality(ctx, req); err != nil || !slices.Equal(again.Scores, want["kind=eccentricity"]) {
		t.Fatalf("after a caller overwrote its reply: %v, %v; want %v", again.Scores, err, want["kind=eccentricity"])
	}
}

// TestCentralityAfterCommitIsFresh: a /mutate commit moves /centrality to
// the new snapshot, whose handle carries no vector of the old one.
func TestCentralityAfterCommitIsFresh(t *testing.T) {
	s, _ := testServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	const url = "/centrality?dataset=tiny&s=1&kind=harmonic"
	var before CentralityResult
	if err := json.Unmarshal(getBody(t, ts, url), &before); err != nil {
		t.Fatal(err)
	}
	resp, err := ts.Client().Post(ts.URL+"/mutate", "application/json",
		strings.NewReader(`{"dataset":"tiny","ops":[{"op":"add","members":[4,5]}],"commit":true}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/mutate: status %d", resp.StatusCode)
	}
	var after CentralityResult
	if err := json.Unmarshal(getBody(t, ts, url), &after); err != nil {
		t.Fatal(err)
	}
	g, err := s.Registry().Get("tiny")
	if err != nil {
		t.Fatal(err)
	}
	want := g.SLineGraph(1, true).SHarmonicClosenessCentrality()
	if !slices.Equal(after.Scores, want) {
		t.Fatalf("after the commit: %v, want the fresh facade vector %v", after.Scores, want)
	}
	if slices.Equal(after.Scores, before.Scores) {
		t.Fatal("the commit joined the two islands, yet the scores did not move")
	}
}

// TestCentralityMemosDoNotGrowWithCommits: the score vectors ride on the
// s-line handles, so asking harmonic on every shape across commits leaves
// the handles, memos included, within TestSLineHandlesDoNotGrowWithCommits'
// bound.
func TestCentralityMemosDoNotGrowWithCommits(t *testing.T) {
	handlesStayBounded(t, true)
}
