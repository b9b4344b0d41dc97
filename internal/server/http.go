package server

import (
	"context"
	"encoding/json"
	"errors"
	"expvar"
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"time"
)

// Handler returns the server's HTTP surface: one GET endpoint per query
// kind, every parameter in the query string, every response JSON. The
// handler holds no state of its own — it is a thin codec over the Server
// methods, and every request's context reaches the kernels.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.handleHealth)
	mux.Handle("GET /metrics", s.metricsVar())
	mux.HandleFunc("GET /datasets", s.handleDatasets)
	mux.HandleFunc("GET /stats", s.handleStats)
	mux.HandleFunc("GET /toplexes", s.handleToplexes)
	mux.HandleFunc("GET /slinegraph", s.handleSLine)
	mux.HandleFunc("GET /scc", s.handleSCC)
	mux.HandleFunc("GET /sdistance", s.handleSDistance)
	mux.HandleFunc("GET /spath", s.handleSPath)
	mux.HandleFunc("GET /centrality", s.handleCentrality)
	mux.HandleFunc("POST /mutate", s.handleMutate)
	mux.HandleFunc("POST /compact", s.handleCompact)
	return mux
}

// metricsVar composes the /metrics payload from expvar primitives: each
// gauge is an expvar.Func evaluated at serve time, assembled into one
// expvar.Map held per server (deliberately not Published into the process
// globals, so tests can build any number of servers).
func (s *Server) metricsVar() http.Handler {
	m := new(expvar.Map).Init()
	gauge := func(name string, f func() any) { m.Set(name, expvar.Func(f)) }
	gauge("uptime_seconds", func() any { return time.Since(s.start).Seconds() })
	gauge("in_flight", func() any { return s.adm.InFlight() })
	gauge("queue_depth", func() any { return s.adm.QueueDepth() })
	gauge("admission", func() any {
		admitted, rejected, timedOut, cancelled := s.adm.Counters()
		return map[string]int64{
			"admitted": admitted, "rejected": rejected,
			"timed_out": timedOut, "cancelled": cancelled,
		}
	})
	gauge("cache", func() any {
		hits, misses, waits := s.cache.Stats()
		return map[string]int64{
			"entries": int64(s.cache.Len()),
			"hits":    hits, "misses": misses, "waits": waits,
			"evictions": s.cache.Evictions(),
		}
	})
	gauge("scc", func() any {
		views, incremental, full := s.sccCounts()
		return map[string]int{"views": views, "incremental": incremental, "full": full}
	})
	gauge("endpoints", func() any { return s.met.snapshot() })
	gauge("engine_workers", func() any { return s.eng.NumWorkers() })
	gauge("datasets", func() any {
		out := map[string]map[string]any{}
		for _, n := range s.reg.Names() {
			g, err := s.reg.Get(n)
			if err != nil {
				continue // racing a concurrent removal is fine
			}
			out[n] = map[string]any{
				"epoch":       g.Epoch(),
				"pending_ops": s.PendingOps(n),
			}
		}
		return out
	})
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		fmt.Fprint(w, m.String())
	})
}

// statusFor maps the serving core's sentinel errors onto HTTP status codes.
func statusFor(err error) int {
	var tooLarge *http.MaxBytesError
	switch {
	case errors.As(err, &tooLarge):
		return http.StatusRequestEntityTooLarge
	case errors.Is(err, ErrBadRequest):
		return http.StatusBadRequest
	case errors.Is(err, ErrUnknownDataset):
		return http.StatusNotFound
	case errors.Is(err, ErrOverloaded):
		return http.StatusTooManyRequests
	case errors.Is(err, ErrQueueTimeout),
		errors.Is(err, context.DeadlineExceeded),
		errors.Is(err, context.Canceled):
		return http.StatusServiceUnavailable
	default:
		return http.StatusInternalServerError
	}
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v)
}

func writeErr(w http.ResponseWriter, err error) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(statusFor(err))
	_ = json.NewEncoder(w).Encode(map[string]string{"error": err.Error()})
}

// qInt parses an integer query parameter, returning def when absent.
func qInt(r *http.Request, name string, def int) (int, error) {
	v := r.URL.Query().Get(name)
	if v == "" {
		return def, nil
	}
	n, err := strconv.Atoi(v)
	if err != nil {
		return 0, fmt.Errorf("%w: %s=%q is not an integer", ErrBadRequest, name, v)
	}
	return n, nil
}

// qBool parses a boolean query parameter, returning def when absent.
func qBool(r *http.Request, name string, def bool) (bool, error) {
	v := r.URL.Query().Get(name)
	if v == "" {
		return def, nil
	}
	b, err := strconv.ParseBool(v)
	if err != nil {
		return false, fmt.Errorf("%w: %s=%q is not a boolean", ErrBadRequest, name, v)
	}
	return b, nil
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, s.Health())
}

func (s *Server) handleDatasets(w http.ResponseWriter, r *http.Request) {
	out, err := s.Datasets(r.Context())
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, out)
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	out, err := s.Stats(r.Context(), r.URL.Query().Get("dataset"))
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, out)
}

func (s *Server) handleToplexes(w http.ResponseWriter, r *http.Request) {
	out, err := s.Toplexes(r.Context(), r.URL.Query().Get("dataset"))
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, out)
}

func (s *Server) handleSLine(w http.ResponseWriter, r *http.Request) {
	req := SLineRequest{Dataset: r.URL.Query().Get("dataset")}
	var err error
	if req.S, err = qInt(r, "s", 1); err != nil {
		writeErr(w, err)
		return
	}
	if req.Edges, err = qBool(r, "edges", true); err != nil {
		writeErr(w, err)
		return
	}
	if req.Weighted, err = qBool(r, "weighted", false); err != nil {
		writeErr(w, err)
		return
	}
	out, err := s.SLine(r.Context(), req)
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, out)
}

func (s *Server) handleSCC(w http.ResponseWriter, r *http.Request) {
	req := SCCRequest{Dataset: r.URL.Query().Get("dataset")}
	var err error
	if req.S, err = qInt(r, "s", 1); err != nil {
		writeErr(w, err)
		return
	}
	if req.WithLabels, err = qBool(r, "labels", false); err != nil {
		writeErr(w, err)
		return
	}
	out, err := s.SComponents(r.Context(), req)
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, out)
}

func (s *Server) distanceRequest(r *http.Request) (SDistanceRequest, error) {
	req := SDistanceRequest{Dataset: r.URL.Query().Get("dataset")}
	var err error
	if req.S, err = qInt(r, "s", 1); err != nil {
		return req, err
	}
	if req.Src, err = qInt(r, "src", -1); err != nil {
		return req, err
	}
	if req.Dst, err = qInt(r, "dst", -1); err != nil {
		return req, err
	}
	if req.Weighted, err = qBool(r, "weighted", false); err != nil {
		return req, err
	}
	return req, nil
}

func (s *Server) handleSDistance(w http.ResponseWriter, r *http.Request) {
	req, err := s.distanceRequest(r)
	if err != nil {
		writeErr(w, err)
		return
	}
	out, err := s.SDistance(r.Context(), req)
	if err != nil {
		writeErr(w, err)
		return
	}
	// +Inf is not valid JSON; the reachable flag already carries the fact.
	if !out.Reachable {
		out.Distance = -1
	}
	writeJSON(w, out)
}

func (s *Server) handleSPath(w http.ResponseWriter, r *http.Request) {
	req, err := s.distanceRequest(r)
	if err != nil {
		writeErr(w, err)
		return
	}
	out, err := s.SPath(r.Context(), req)
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, out)
}

// topScores reduces a score vector to its top-k (id, score) pairs, ties
// broken by lower ID. k <= 0 keeps the full vector.
func topScores(scores []float64, k int) []ScoreEntry {
	out := make([]ScoreEntry, len(scores))
	for i, v := range scores {
		out[i] = ScoreEntry{ID: i, Score: v}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Score > out[j].Score })
	if k > 0 && k < len(out) {
		out = out[:k]
	}
	return out
}

// ScoreEntry is one (hyperedge, score) row of a top-k centrality response.
type ScoreEntry struct {
	ID    int     `json:"id"`
	Score float64 `json:"score"`
}

// centralityHTTPResult is CentralityResult with the top-k reduction applied
// at the HTTP layer (the Server method always returns the full vector).
type centralityHTTPResult struct {
	CentralityResult
	Top []ScoreEntry `json:"top,omitempty"`
}

func (s *Server) handleCentrality(w http.ResponseWriter, r *http.Request) {
	req := CentralityRequest{
		Dataset: r.URL.Query().Get("dataset"),
		Kind:    CentralityKind(r.URL.Query().Get("kind")),
	}
	var err error
	if req.S, err = qInt(r, "s", 1); err != nil {
		writeErr(w, err)
		return
	}
	if req.Normalized, err = qBool(r, "normalized", false); err != nil {
		writeErr(w, err)
		return
	}
	if req.Weighted, err = qBool(r, "weighted", false); err != nil {
		writeErr(w, err)
		return
	}
	top, err := qInt(r, "top", 0)
	if err != nil {
		writeErr(w, err)
		return
	}
	out, err := s.Centrality(r.Context(), req)
	if err != nil {
		writeErr(w, err)
		return
	}
	// JSON cannot encode +Inf; map it to -1 (the same convention as
	// unreachable distances). No kernel emits it today: eccentricity scores
	// an isolated hyperedge 0 and skips unreachable ones. Scores is this
	// request's own copy, so the rewrite reaches no other reply.
	for i, v := range out.Scores {
		if isInf(v) {
			out.Scores[i] = -1
		}
	}
	if top > 0 {
		writeJSON(w, centralityHTTPResult{CentralityResult: out, Top: topScores(out.Scores, top)})
		return
	}
	writeJSON(w, out)
}

// mutateBody is the POST /mutate wire format.
type mutateBody struct {
	Dataset string   `json:"dataset"`
	Ops     []EdgeOp `json:"ops"`
	Commit  bool     `json:"commit"`
}

// maxMutateBody caps a POST /mutate body. A 25-insert batch is a few
// kilobytes; the cap only keeps one request from buffering unbounded memory.
const maxMutateBody = 8 << 20

func (s *Server) handleMutate(w http.ResponseWriter, r *http.Request) {
	var body mutateBody
	// Decode buffers the whole JSON value before unmarshalling any of it, so
	// an oversized body fails at the cap with nothing decoded.
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxMutateBody)).Decode(&body); err != nil {
		var tooLarge *http.MaxBytesError
		if !errors.As(err, &tooLarge) { // statusFor answers tooLarge itself
			err = fmt.Errorf("%w: invalid JSON body: %v", ErrBadRequest, err)
		}
		writeErr(w, err)
		return
	}
	out, err := s.Mutate(r.Context(), MutateRequest{Dataset: body.Dataset, Ops: body.Ops, Commit: body.Commit})
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, out)
}

func (s *Server) handleCompact(w http.ResponseWriter, r *http.Request) {
	out, err := s.Compact(r.Context(), r.URL.Query().Get("dataset"))
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, out)
}
