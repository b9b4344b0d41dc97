package server

import (
	"context"
	"fmt"
	"math"
	"sync"

	"nwhy"
)

// mutState is one dataset's writer state: a mutex serializing that dataset's
// mutators (so mutations on different datasets never contend) plus the
// staged-but-uncommitted batch the compaction policy is accumulating.
type mutState struct {
	mu      sync.Mutex
	g       *nwhy.NWHypergraph // handle pending was begun against
	pending *nwhy.Mutation
	staged  int
}

// mutStateFor returns (creating if needed) the writer state for a dataset.
func (s *Server) mutStateFor(name string) *mutState {
	s.mutMu.Lock()
	defer s.mutMu.Unlock()
	ms, ok := s.muts[name]
	if !ok {
		ms = &mutState{}
		s.muts[name] = ms
	}
	return ms
}

// maxSCCViews caps the maintained s-CC views a server keeps resident. The
// key's s comes from the request, so the map is bounded here, not by the
// clients' good behaviour; a view holds two uint32 per hyperedge.
const maxSCCViews = 32

// sccKey identifies one maintained s-CC view.
type sccKey struct {
	dataset string
	s       int
}

// sccEntry is one maintained view, bound to the exact facade handle it
// tracks (so a registry swap — same name, different handle — replaces it
// instead of serving components of a dataset that no longer exists), plus
// the answer it gave at the newest epoch it was asked at.
type sccEntry struct {
	g    *nwhy.NWHypergraph
	view *nwhy.IncrementalSCC
	used uint64 // Server.sccTick at the last request; guarded by Server.sccMu

	// mu serializes requests on the view and guards memo and hits: identical
	// requests at a new epoch queue here and all but the first find memo
	// current.
	mu   sync.Mutex
	memo *sccAnswer // nil until the first answer
	hits int
}

// sccAnswer is the s-component structure at one epoch. The label vector is
// written once and then only read, by every reply of that epoch.
type sccAnswer struct {
	epoch               uint64
	labels              []uint32
	components, largest int
}

// sccView returns the maintained view for (dataset, s) on g, creating it
// when none is resident or the registry handle changed, and evicting the
// least recently used view to stay within maxSCCViews.
func (s *Server) sccView(dataset string, sThresh int, g *nwhy.NWHypergraph) *sccEntry {
	key := sccKey{dataset: dataset, s: sThresh}
	s.sccMu.Lock()
	defer s.sccMu.Unlock()
	e, ok := s.sccs[key]
	if !ok && len(s.sccs) >= maxSCCViews {
		var lru sccKey
		oldest := uint64(math.MaxUint64)
		for k, v := range s.sccs {
			if v.used < oldest {
				lru, oldest = k, v.used
			}
		}
		delete(s.sccs, lru)
	}
	if !ok || e.g != g {
		e = &sccEntry{g: g, view: g.IncrementalSCC(sThresh)}
		s.sccs[key] = e
	}
	s.sccTick++
	e.used = s.sccTick
	return e
}

// answer returns the s-components at the dataset's current epoch and whether
// that took no full recompute. At the memoized epoch it is a read; otherwise
// the view brings its forest forward (absorbing an insert-only gap, else
// recomputing) and the labels it hands over are counted once and kept. A
// build that fails or panics leaves memo as it was.
func (e *sccEntry) answer(ctx context.Context) (*sccAnswer, bool, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.memo != nil && e.memo.epoch == e.g.Epoch() {
		e.hits++
		return e.memo, true, nil
	}
	// e.mu is this view's single-flight: holding it across the build is what
	// makes the second identical request a hit.
	labels, inc, err := e.view.Labels(ctx) //nwhy:nolint(locks-balanced) per-view single-flight lock held across the build by design
	if err != nil {
		return nil, false, err
	}
	a := &sccAnswer{epoch: e.view.Epoch(), labels: labels}
	// A label is its component's minimum member ID, so it indexes labels.
	sizes := make([]int32, len(labels))
	for _, l := range labels {
		if sizes[l] == 0 {
			a.components++
		}
		sizes[l]++
		a.largest = max(a.largest, int(sizes[l]))
	}
	e.memo = a
	return a, inc, nil
}

// sccCounts sums over the resident views: how many there are, and how many
// /scc replies they gave without and with a full recompute.
func (s *Server) sccCounts() (views, incremental, full int) {
	s.sccMu.Lock()
	entries := make([]*sccEntry, 0, len(s.sccs))
	for _, e := range s.sccs {
		entries = append(entries, e)
	}
	s.sccMu.Unlock()
	for _, e := range entries {
		inc, f := e.view.Counts()
		e.mu.Lock()
		inc += e.hits
		e.mu.Unlock()
		incremental, full = incremental+inc, full+f
	}
	return len(entries), incremental, full
}

// EdgeOp is one staged mutation operation.
type EdgeOp struct {
	// Op is "add" (hyperedge over Members) or "remove" (hyperedge ID).
	Op      string   `json:"op"`
	Members []uint32 `json:"members,omitempty"`
	ID      uint32   `json:"id,omitempty"`
}

// MutateRequest stages a batch of hyperedge operations against a dataset.
type MutateRequest struct {
	Dataset string
	Ops     []EdgeOp
	// Commit forces the staged batch into a new snapshot even when the
	// compaction policy would keep accumulating.
	Commit bool
}

// MutateResult reports what a Mutate call did. Added carries the hyperedge
// ID assigned to each "add" op, in request order. When Committed is false
// the operations are staged only: invisible to queries until the compaction
// policy (or an explicit Compact) folds them in.
type MutateResult struct {
	Dataset   string   `json:"dataset"`
	Added     []uint32 `json:"added,omitempty"`
	Removed   int      `json:"removed"`
	Committed bool     `json:"committed"`
	// Pending is the number of staged operations still awaiting compaction.
	Pending int `json:"pending"`
	// Epoch is the dataset's mutation epoch after the call.
	Epoch uint64 `json:"epoch"`
}

// applyOps stages req's operations onto m, returning the assigned IDs for
// adds and the remove count.
func applyOps(m *nwhy.Mutation, ops []EdgeOp) (added []uint32, removed int, err error) {
	for i, op := range ops {
		switch op.Op {
		case "add":
			id, err := m.AddEdge(op.Members)
			if err != nil {
				return nil, 0, fmt.Errorf("%w: op %d: %v", ErrBadRequest, i, err)
			}
			added = append(added, id)
		case "remove":
			if err := m.RemoveEdge(op.ID); err != nil {
				return nil, 0, fmt.Errorf("%w: op %d: %v", ErrBadRequest, i, err)
			}
			removed++
		default:
			return nil, 0, fmt.Errorf("%w: op %d: unknown op %q (want add|remove)", ErrBadRequest, i, op.Op)
		}
	}
	return added, removed, nil
}

// Mutate stages (and, per the compaction policy, commits) a batch of
// hyperedge insertions and removals against one dataset. Writers to the same
// dataset are serialized; concurrent readers keep seeing the last committed
// snapshot until the commit atomically swaps the new one in. Any failing
// operation discards the whole pending batch — partially applied staging is
// never retained.
func (s *Server) Mutate(ctx context.Context, req MutateRequest) (MutateResult, error) {
	var out MutateResult
	err := s.do(ctx, "mutate", func(ctx context.Context) error {
		g, err := s.dataset(req.Dataset)
		if err != nil {
			return err
		}
		ms := s.mutStateFor(req.Dataset)
		ms.mu.Lock()
		defer ms.mu.Unlock()
		// A registry swap orphans any batch staged against the old handle.
		if ms.pending != nil && ms.g != g {
			ms.pending, ms.staged = nil, 0
		}
		if ms.pending == nil {
			m, err := g.BeginMutation()
			if err != nil {
				return fmt.Errorf("%w: %v", ErrBadRequest, err)
			}
			ms.g, ms.pending = g, m
		}
		added, removed, err := applyOps(ms.pending, req.Ops)
		if err != nil {
			ms.pending, ms.staged = nil, 0
			return err
		}
		ms.staged += len(req.Ops)
		out = MutateResult{Dataset: req.Dataset, Added: added, Removed: removed}
		if req.Commit || ms.staged >= s.compactEvery {
			// ms.mu is the per-dataset single-writer serialization: holding
			// it across the commit is the design (CommitCtx CAS-fails on
			// concurrent writers; queries never take this lock).
			if err := ms.pending.CommitCtx(ctx); err != nil { //nwhy:nolint(locks-balanced) single-writer lock held across commit by design
				ms.pending, ms.staged = nil, 0
				return err
			}
			ms.pending, ms.staged = nil, 0
			out.Committed = true
		}
		out.Pending, out.Epoch = ms.staged, g.Epoch()
		return nil
	})
	return out, err
}

// CompactResult reports a Compact call: whether a staged batch was folded
// into a new snapshot, and the dataset's epoch afterwards.
type CompactResult struct {
	Dataset   string `json:"dataset"`
	Committed bool   `json:"committed"`
	Flushed   int    `json:"flushed"`
	Epoch     uint64 `json:"epoch"`
}

// Compact forces the dataset's staged-but-uncommitted operations into a new
// frozen snapshot regardless of the compaction policy. With nothing staged
// it is a cheap no-op.
func (s *Server) Compact(ctx context.Context, dataset string) (CompactResult, error) {
	var out CompactResult
	err := s.do(ctx, "compact", func(ctx context.Context) error {
		g, err := s.dataset(dataset)
		if err != nil {
			return err
		}
		ms := s.mutStateFor(dataset)
		ms.mu.Lock()
		defer ms.mu.Unlock()
		out = CompactResult{Dataset: dataset}
		if ms.pending != nil && ms.g != g {
			ms.pending, ms.staged = nil, 0
		}
		if ms.pending != nil {
			flushed := ms.staged
			if err := ms.pending.CommitCtx(ctx); err != nil { //nwhy:nolint(locks-balanced) single-writer lock held across commit by design
				ms.pending, ms.staged = nil, 0
				return err
			}
			ms.pending, ms.staged = nil, 0
			out.Committed, out.Flushed = true, flushed
		}
		out.Epoch = g.Epoch()
		return nil
	})
	return out, err
}

// PendingOps reports how many staged operations a dataset has awaiting
// compaction (0 for unknown datasets — this is a gauge, not a query).
func (s *Server) PendingOps(dataset string) int {
	s.mutMu.Lock()
	ms, ok := s.muts[dataset]
	s.mutMu.Unlock()
	if !ok {
		return 0
	}
	ms.mu.Lock()
	defer ms.mu.Unlock()
	return ms.staged
}
