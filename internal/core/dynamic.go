package core

import (
	"fmt"

	"nwhy/internal/parallel"
	"nwhy/internal/sparse"
)

// maxNodeGrowth caps how far a single AddEdge may extend the hypernode ID
// space past its current end. Members are caller-chosen IDs, so a typo'd
// huge ID would otherwise silently commit the next snapshot to a
// multi-gigabyte node incidence.
const maxNodeGrowth = 1 << 20

// DynamicHypergraph is the mutable view of a bipartite hypergraph: a
// sparse.Overlay over the frozen hyperedge incidence, plus hypernode
// bookkeeping (degree deltas and a hypernode ID free-list) maintained
// incrementally so node recycling never needs the transposed structure.
// It is single-writer, like the overlay underneath; Snapshot folds the
// pending mutations into a fresh frozen Hypergraph.
//
// Hyperedge IDs are stable under mutation and recycled only after a
// RemoveEdge, which incremental consumers detect through Deletes().
type DynamicHypergraph struct {
	base *Hypergraph
	ov   *sparse.Overlay

	nodeDelta map[uint32]int // live-degree adjustment vs base, per touched hypernode
	nodeFree  []uint32       // hypernode IDs observed at live degree 0 (candidates for recycling)

	dirty []uint32 // hyperedge IDs inserted since construction, in order
}

// NewDynamic opens a mutable view over base. Weighted incidence structures
// are rejected (the mutation surface carries no incidence weights).
func NewDynamic(base *Hypergraph) (*DynamicHypergraph, error) {
	ov, err := sparse.NewOverlay(base.Edges)
	if err != nil {
		return nil, err
	}
	ov.GrowCols(base.NumNodes())
	return &DynamicHypergraph{
		base:      base,
		ov:        ov,
		nodeDelta: map[uint32]int{},
	}, nil
}

// Base returns the frozen hypergraph the view was opened over.
func (d *DynamicHypergraph) Base() *Hypergraph { return d.base }

// NumEdges reports the hyperedge ID space (dead IDs included — IDs are
// stable until recycled).
func (d *DynamicHypergraph) NumEdges() int { return d.ov.NumRows() }

// NumNodes reports the hypernode ID space.
func (d *DynamicHypergraph) NumNodes() int { return d.ov.NumCols() }

// Inserts reports the number of AddEdge calls accepted so far.
func (d *DynamicHypergraph) Inserts() int { return d.ov.Inserts() }

// Deletes is the tombstone epoch: the number of RemoveEdge calls accepted
// so far. Incremental consumers may absorb insertions while this is
// unchanged but must recompute from scratch once it moves.
func (d *DynamicHypergraph) Deletes() int { return d.ov.Deletes() }

// Dirty returns the hyperedge IDs inserted since construction, in insert
// order (aliases internal storage). IDs later removed again still appear;
// consumers read their current membership, which is then empty.
func (d *DynamicHypergraph) Dirty() []uint32 { return d.dirty }

// EdgeAlive reports whether hyperedge e currently exists.
func (d *DynamicHypergraph) EdgeAlive(e uint32) bool {
	return int(e) < d.ov.NumRows() && !d.ov.Dead(e)
}

// EdgeMembers returns hyperedge e's current hypernodes (sorted, deduplicated;
// aliases storage; nil for dead or out-of-range IDs).
func (d *DynamicHypergraph) EdgeMembers(e uint32) []uint32 { return d.ov.Row(e) }

// NodeDegree reports hypernode v's current live degree: its frozen degree
// plus the pending delta.
func (d *DynamicHypergraph) NodeDegree(v uint32) int {
	deg := d.nodeDelta[v]
	if int(v) < d.base.NumNodes() {
		deg += d.base.NodeDegree(int(v))
	}
	return deg
}

// AddEdge inserts a hyperedge over members and returns its ID (recycled
// after deletions, fresh otherwise). Members are deduplicated; an empty
// member set is rejected, as is a member ID that would grow the hypernode
// space by more than maxNodeGrowth.
func (d *DynamicHypergraph) AddEdge(members []uint32) (uint32, error) {
	if len(members) == 0 {
		return 0, fmt.Errorf("core: empty hyperedge")
	}
	for _, v := range members {
		if int(v) >= d.ov.NumCols()+maxNodeGrowth {
			return 0, fmt.Errorf("core: hypernode %d grows the node space by more than %d past %d",
				v, maxNodeGrowth, d.ov.NumCols())
		}
	}
	id := d.ov.InsertRow(members)
	for _, v := range d.ov.Row(id) { // post-dedup membership
		d.nodeDelta[v]++
	}
	d.dirty = append(d.dirty, id)
	return id, nil
}

// RemoveEdge tombstones hyperedge e, releasing its ID for recycling.
// Hypernodes whose live degree drops to zero become candidates for
// NewNodeID recycling.
func (d *DynamicHypergraph) RemoveEdge(e uint32) error {
	members := d.ov.Row(e)
	if err := d.ov.DeleteRow(e); err != nil {
		return err
	}
	for _, v := range members {
		d.nodeDelta[v]--
		if d.NodeDegree(v) == 0 {
			d.nodeFree = append(d.nodeFree, v)
		}
	}
	return nil
}

// NewNodeID returns a hypernode ID guaranteed unused by any live hyperedge:
// a recycled degree-zero ID freed by earlier removals when one is still
// unused, else a fresh ID extending the node space. The caller owns wiring
// it into hyperedges via AddEdge.
func (d *DynamicHypergraph) NewNodeID() uint32 {
	for n := len(d.nodeFree); n > 0; n = len(d.nodeFree) {
		v := d.nodeFree[n-1]
		d.nodeFree = d.nodeFree[:n-1]
		// An AddEdge since the removal may have re-referenced v; recycle
		// only if it is still isolated.
		if d.NodeDegree(v) == 0 {
			return v
		}
	}
	v := uint32(d.ov.NumCols())
	d.ov.GrowCols(int(v) + 1)
	return v
}

// Snapshot compacts the pending mutations into a fresh frozen Hypergraph:
// the overlay folds into a new hyperedge incidence (dead IDs become empty
// rows, keeping the ID space stable), and the node incidence is its counting
// transpose (sparse.TransposeOn). A cancelled engine returns e.Err() and no
// hypergraph. The view stays usable afterwards, still layered over its
// original base.
func (d *DynamicHypergraph) Snapshot(e *parallel.Engine) (*Hypergraph, error) {
	edges, err := d.ov.Compact(e)
	if err != nil {
		return nil, err
	}
	nodes, err := sparse.TransposeOn(e, edges)
	if err != nil {
		return nil, err
	}
	return &Hypergraph{Edges: edges, Nodes: nodes}, nil
}
