package server

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"nwhy"
	"nwhy/internal/gen"
	"nwhy/internal/parallel"
)

// TestRoutesNeverUseDefaultPool: with every dataset bound to the server's
// private engine, no route — reads, the cached and uncached s-line paths,
// every centrality kind, /scc before and after a commit, /mutate and
// /compact — hands the process default pool a task. Work there would run
// outside admission, ignore the request's cancellation, and compete with
// the serving engine for the CPUs.
func TestRoutesNeverUseDefaultPool(t *testing.T) {
	eng := nwhy.NewEngine(2)
	defer eng.Close()
	h := gen.Community(gen.CommunityConfig{
		NumEdges: 300, NumNodes: 200, MeanEdgeSize: 5, SizeSkew: 1.5, MemberSkew: 0.3, Seed: 4,
	})
	reg := NewRegistry()
	reg.Add("d", nwhy.Wrap(h).WithEngine(eng), "")
	s, err := New(Config{Engine: eng}, reg)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	routes := []struct{ method, path, body string }{
		{"GET", "/healthz", ""},
		{"GET", "/datasets", ""},
		{"GET", "/metrics", ""},
		{"GET", "/stats?dataset=d", ""},
		{"GET", "/toplexes?dataset=d", ""},
		{"GET", "/slinegraph?dataset=d&s=2", ""},
		{"GET", "/slinegraph?dataset=d&s=2", ""},
		{"GET", "/slinegraph?dataset=d&s=1&edges=false", ""},
		{"GET", "/slinegraph?dataset=d&s=2&weighted=true", ""},
		{"GET", "/scc?dataset=d&s=2&labels=true", ""},
		{"GET", "/scc?dataset=d&s=2", ""},
		{"GET", "/sdistance?dataset=d&s=2&src=0&dst=9", ""},
		{"GET", "/sdistance?dataset=d&s=2&src=0&dst=9&weighted=true", ""},
		{"GET", "/spath?dataset=d&s=2&src=0&dst=9", ""},
		{"GET", "/spath?dataset=d&s=2&src=0&dst=9&weighted=true", ""},
		{"GET", "/centrality?dataset=d&s=2&kind=betweenness", ""},
		{"GET", "/centrality?dataset=d&s=2&kind=closeness", ""},
		{"GET", "/centrality?dataset=d&s=2&kind=harmonic", ""},
		{"GET", "/centrality?dataset=d&s=2&kind=eccentricity", ""},
		{"GET", "/centrality?dataset=d&s=2&kind=pagerank", ""},
		{"GET", "/centrality?dataset=d&s=2&kind=betweenness&weighted=true", ""},
		{"POST", "/mutate", `{"dataset":"d","ops":[{"op":"add","members":[0,1,2,3]}]}`},
		{"GET", "/scc?dataset=d&s=2", ""}, // absorbs the insert
		{"POST", "/mutate", `{"dataset":"d","ops":[{"op":"remove","id":7}]}`},
		{"GET", "/scc?dataset=d&s=2", ""}, // recomputes after the removal
		{"GET", "/stats?dataset=d", ""},
		{"POST", "/compact?dataset=d", ""},
	}
	def := parallel.Default()
	for _, r := range routes {
		before := def.Submitted()
		req, err := http.NewRequest(r.method, srv.URL+r.path, strings.NewReader(r.body))
		if err != nil {
			t.Fatal(err)
		}
		if r.body != "" {
			req.Header.Set("Content-Type", "application/json")
		}
		resp, err := srv.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s %s: status %d: %s", r.method, r.path, resp.StatusCode, body)
		}
		if n := def.Submitted() - before; n != 0 {
			t.Errorf("%s %s: the default pool received %d tasks", r.method, r.path, n)
		}
	}
}
