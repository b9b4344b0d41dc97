package nwhy

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"nwhy/internal/core"
	"nwhy/internal/slinegraph"
	"nwhy/internal/unionfind"
)

// ErrMutationConflict is returned by Commit when another mutation committed
// since BeginMutation: the batch was built against a stale snapshot and
// must be replayed against the current one.
var ErrMutationConflict = errors.New("nwhy: concurrent mutation committed first; begin a new mutation and replay")

// maxMutLogDepth bounds the per-snapshot dirty-log chain. An incremental
// consumer more than this many commits behind rebuilds from scratch instead
// of replaying the chain, and snapshots never retain unbounded history.
const maxMutLogDepth = 64

// stateBox holds a handle's current snapshot behind one atomic pointer. It
// is shared (never copied) by every WithEngine copy of the handle.
type stateBox struct {
	cur atomic.Pointer[snapshot]
}

// newStateBox seals h into a fresh epoch-0 box. This constructor and snap
// are the only direct readers of the atomic pointer; every later version
// is published through Commit's compare-and-swap below.
func newStateBox(h *core.Hypergraph) *stateBox {
	st := &stateBox{}
	st.cur.Store(&snapshot{h: h})
	return st
}

// snap loads the current snapshot. Methods reading the hypergraph more than
// once bind the result to a local so one call never straddles a Commit.
func (g *NWHypergraph) snap() *snapshot { return g.state.cur.Load() }

// snapshot is one frozen version of the hypergraph: the immutable CSR pair
// plus the mutation metadata incremental consumers key on. Snapshots are
// immutable once stored; Commit replaces the pointer, never the contents.
type snapshot struct {
	h *core.Hypergraph
	// epoch counts committed mutation batches since construction.
	epoch uint64
	// del counts hyperedge deletions cumulatively across all commits — the
	// tombstone epoch. While it is unchanged between two snapshots, the
	// difference between them is insert-only and incrementally absorbable.
	del uint64
	// log chains the per-commit inserted-edge IDs backwards in time (nil at
	// epoch 0 or past maxMutLogDepth).
	log *mutLog
}

// mutLog records the hyperedge IDs inserted by the commit that produced
// epoch. prev points at the previous commit's entry.
type mutLog struct {
	epoch uint64
	dirty []uint32
	prev  *mutLog
	depth int
}

// dirtySince collects the hyperedge IDs inserted between sinceEpoch and
// snap's epoch, oldest first. ok is false when the log chain no longer
// reaches back to sinceEpoch (history truncated) — the caller must fall
// back to a full recompute. The caller is responsible for checking that no
// deletions happened in the span (snapshot.del equality); with none, every
// returned ID is a fresh append, never a recycled slot.
func dirtySince(snap *snapshot, sinceEpoch uint64) ([]uint32, bool) {
	if snap.epoch == sinceEpoch {
		return nil, true
	}
	var spans [][]uint32
	l := snap.log
	for l != nil && l.epoch > sinceEpoch {
		spans = append(spans, l.dirty)
		l = l.prev
	}
	reached := (l == nil && sinceEpoch == 0 && uint64(len(spans)) == snap.epoch) ||
		(l != nil && l.epoch == sinceEpoch)
	if !reached {
		return nil, false
	}
	var out []uint32
	for i := len(spans) - 1; i >= 0; i-- {
		out = append(out, spans[i]...)
	}
	return out, true
}

// Mutation is an uncommitted batch of hyperedge insertions and removals
// against one snapshot of the handle. It is single-writer (not safe for
// concurrent use); readers of the handle are unaffected until Commit swaps
// the new snapshot in. A batch whose Commit loses the race against another
// writer fails with ErrMutationConflict and changes nothing.
type Mutation struct {
	g    *NWHypergraph
	base *snapshot
	dyn  *core.DynamicHypergraph
	done bool
}

// BeginMutation opens a mutation batch against the current snapshot.
// Weighted hypergraphs are not mutable (the mutation surface carries no
// incidence weights).
func (g *NWHypergraph) BeginMutation() (*Mutation, error) {
	base := g.snap()
	dyn, err := core.NewDynamic(base.h)
	if err != nil {
		return nil, err
	}
	return &Mutation{g: g, base: base, dyn: dyn}, nil
}

// AddEdge stages a hyperedge over members (deduplicated, non-empty) and
// returns its ID: fresh, or recycled from an earlier removal.
func (m *Mutation) AddEdge(members []uint32) (uint32, error) {
	if m.done {
		return 0, errMutationDone
	}
	return m.dyn.AddEdge(members)
}

// RemoveEdge stages the removal of hyperedge e.
func (m *Mutation) RemoveEdge(e uint32) error {
	if m.done {
		return errMutationDone
	}
	return m.dyn.RemoveEdge(e)
}

// NewNodeID returns a hypernode ID unused by any live hyperedge in the
// batch's view — recycled from hypernodes isolated by removals when
// possible, fresh otherwise.
func (m *Mutation) NewNodeID() (uint32, error) {
	if m.done {
		return 0, errMutationDone
	}
	return m.dyn.NewNodeID(), nil
}

// Edges reports the batch's current hyperedge ID space; Inserts and Deletes
// report the staged operation counts.
func (m *Mutation) Edges() int   { return m.dyn.NumEdges() }
func (m *Mutation) Inserts() int { return m.dyn.Inserts() }
func (m *Mutation) Deletes() int { return m.dyn.Deletes() }

var errMutationDone = errors.New("nwhy: mutation already committed")

// CommitCtx is Commit bounded by ctx. The staged overlay folds into a new
// CSR pair on the handle's engine (removed IDs stay as empty rows, so the
// ID space is stable), then a compare-and-swap publishes the snapshot: it
// fails with ErrMutationConflict if another batch committed since
// BeginMutation, leaving the handle untouched. An empty batch commits as a
// no-op without an epoch bump. A committed (or conflicted) batch is spent.
func (m *Mutation) CommitCtx(ctx context.Context) error {
	if m.done {
		return errMutationDone
	}
	if m.dyn.Inserts() == 0 && m.dyn.Deletes() == 0 {
		m.done = true
		return nil
	}
	eng := m.g.engine().WithContext(ctx)
	h, err := m.dyn.Snapshot(eng)
	if err != nil {
		return err
	}
	next := &snapshot{
		h:     h,
		epoch: m.base.epoch + 1,
		del:   m.base.del + uint64(m.dyn.Deletes()),
	}
	log := &mutLog{
		epoch: next.epoch,
		dirty: append([]uint32(nil), m.dyn.Dirty()...),
		prev:  m.base.log,
		depth: 1,
	}
	if m.base.log != nil {
		if m.base.log.depth >= maxMutLogDepth {
			log.prev = nil // truncate history; laggards do a full recompute
		} else {
			log.depth = m.base.log.depth + 1
		}
	}
	next.log = log
	m.done = true
	if !m.g.state.cur.CompareAndSwap(m.base, next) {
		return ErrMutationConflict
	}
	return nil
}

// Mutate runs one batch under fn and commits it — the convenience wrapper
// for callers without staging needs.
func (g *NWHypergraph) Mutate(fn func(m *Mutation) error) error {
	m, err := g.BeginMutation()
	if err != nil {
		return err
	}
	if err := fn(m); err != nil {
		return err
	}
	return m.Commit()
}

// IncrementalSCC maintains the s-connected components of the hyperedges
// across mutations. The first Labels call computes them from scratch and
// keeps the union-find forest; after insert-only commits, later calls grow
// the forest and absorb only the pairs incident to the inserted hyperedges
// (inserting a hyperedge never changes the overlap between existing ones);
// a deletion moves the tombstone epoch and forces a full recompute. Safe
// for concurrent Labels calls (internally serialized). A Labels call that
// fails changes nothing a later call can observe: a full recompute is
// installed only when complete, and the unions an interrupted absorb did
// apply are of pairs the retry (always at that epoch or a later one) absorbs
// again or discards with the forest.
type IncrementalSCC struct {
	g *NWHypergraph
	s int

	mu     sync.Mutex
	forest *unionfind.Forest
	epoch  uint64
	del    uint64
	have   bool

	incrementals, fulls int
}

// IncrementalSCC creates a maintained s-CC view over the handle. Nothing is
// computed until the first Labels call.
func (g *NWHypergraph) IncrementalSCC(s int) *IncrementalSCC {
	return &IncrementalSCC{g: g, s: s}
}

// S reports the overlap threshold the view maintains.
func (c *IncrementalSCC) S() int { return c.s }

// Epoch reports the mutation epoch the last successful Labels call answered
// at (0 before the first).
func (c *IncrementalSCC) Epoch() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.epoch
}

// Counts reports how many Labels calls resolved incrementally (cache hits
// included) versus by full recompute — the observable the mutate benchmark
// and the differential tests key on.
func (c *IncrementalSCC) Counts() (incrementals, fulls int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.incrementals, c.fulls
}

// Labels returns the current component labels over [0, NumEdges()): edges
// in one s-component share the minimum member ID, dead (removed) IDs are
// singletons. incremental reports whether the result was served without a
// full recompute. The returned slice is the caller's to keep.
func (c *IncrementalSCC) Labels(ctx context.Context) (labels []uint32, incremental bool, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	// Loaded under the lock: a caller that waited behind a build spanning a
	// commit answers at the handle's epoch now, never at one older than the
	// forest's, so the view only moves forward.
	snap := c.g.snap()
	eng := c.g.engine().WithContext(ctx)
	in := slinegraph.FromHypergraph(snap.h)
	switch {
	case c.have && c.epoch == snap.epoch:
		// Current: serve the cached forest.
		c.incrementals++
		return c.labelsLocked(snap), true, nil
	case c.have && c.del == snap.del:
		// Insert-only gap: absorb if the dirty log still reaches back.
		if dirty, ok := dirtySince(snap, c.epoch); ok {
			c.forest.Grow(snap.h.NumEdges())
			delta, derr := slinegraph.ConstructDirty(eng, in, c.s, dirty)
			if derr != nil {
				return nil, false, derr
			}
			if aerr := slinegraph.AbsorbPairs(eng, c.forest, delta); aerr != nil {
				return nil, false, aerr
			}
			c.epoch = snap.epoch
			c.incrementals++
			return c.labelsLocked(snap), true, nil
		}
	}
	forest, ferr := slinegraph.SComponentsForest(eng, in, c.s, slinegraph.Options{})
	if ferr != nil {
		return nil, false, ferr
	}
	c.forest, c.epoch, c.del, c.have = forest, snap.epoch, snap.del, true
	c.fulls++
	return c.labelsLocked(snap), false, nil
}

// labelsLocked copies the forest labels out, truncated to the edge space.
func (c *IncrementalSCC) labelsLocked(snap *snapshot) []uint32 {
	l := c.forest.Labels()[:snap.h.NumEdges()]
	return append([]uint32(nil), l...)
}

// Refresh classifies how RefreshSLineGraph brought a handle up to date.
type Refresh int

const (
	// RefreshCurrent: the handle already matched the snapshot; returned as is.
	RefreshCurrent Refresh = iota
	// RefreshRebuilt: a full construction ran.
	RefreshRebuilt
)

func (r Refresh) String() string {
	if r == RefreshCurrent {
		return "current"
	}
	return "rebuilt"
}

// RefreshSLineGraphCtx brings lg up to the current snapshot: a handle at the
// current epoch is returned unchanged, any other is rebuilt under o with
// lg's threshold and orientation — rebuilt, not patched with the dirty-edge
// delta, which is slower at every s the benchmark serves (EXPERIMENTS.md
// "Removed in PR 20").
func (g *NWHypergraph) RefreshSLineGraphCtx(ctx context.Context, lg *SLineGraph, o ConstructOptions) (*SLineGraph, Refresh, error) {
	if lg == nil {
		return nil, RefreshRebuilt, fmt.Errorf("nwhy: RefreshSLineGraph of nil handle")
	}
	if lg.epoch == g.snap().epoch {
		return lg, RefreshCurrent, nil
	}
	nl, err := g.SLineGraphCtx(ctx, lg.SLineGraph.S, lg.overEdges, o)
	return nl, RefreshRebuilt, err
}
