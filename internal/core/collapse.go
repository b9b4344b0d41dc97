package core

import (
	"nwhy/internal/parallel"
	"nwhy/internal/sparse"
)

// CollapseResult describes a collapse: the reduced hypergraph plus, for each
// representative entity, the original IDs it absorbed (including itself).
// Representatives are the smallest original ID in each equivalence class,
// and keep their relative order.
type CollapseResult struct {
	H *Hypergraph
	// Classes[k] lists the original IDs merged into representative k (the
	// k-th kept entity, in ascending original-ID order). Classes[k][0] is
	// the representative's original ID.
	Classes [][]uint32
}

// CollapseEdges merges duplicate hyperedges — hyperedges with identical
// hypernode sets — into a single representative each, mirroring the nwhy
// Python API's collapse_edges(). Hypernode IDs are unchanged. The build
// runs on eng; a cancelled engine returns eng.Err() and no result.
func CollapseEdges(eng *parallel.Engine, h *Hypergraph) (*CollapseResult, error) {
	classes := equivalenceClasses(eng, h.Edges)
	bel := sparse.NewBiEdgeList(len(classes), h.NumNodes())
	for k, class := range classes {
		for _, v := range h.Edges.Row(int(class[0])) {
			bel.Add(uint32(k), v)
		}
	}
	return collapsed(eng, bel, classes)
}

// CollapseNodes merges duplicate hypernodes — hypernodes incident to
// identical hyperedge sets — into a single representative each, mirroring
// collapse_nodes(). Hyperedge IDs are unchanged; hyperedge sizes shrink.
// Cancellation as for CollapseEdges.
func CollapseNodes(eng *parallel.Engine, h *Hypergraph) (*CollapseResult, error) {
	classes := equivalenceClasses(eng, h.Nodes)
	bel := sparse.NewBiEdgeList(h.NumEdges(), len(classes))
	for k, class := range classes {
		for _, e := range h.Nodes.Row(int(class[0])) {
			bel.Add(e, uint32(k))
		}
	}
	return collapsed(eng, bel, classes)
}

// collapsed builds the reduced hypergraph of a collapse on eng.
func collapsed(eng *parallel.Engine, bel *sparse.BiEdgeList, classes [][]uint32) (*CollapseResult, error) {
	h, err := FromBiEdgeListOn(eng, bel)
	if err != nil {
		return nil, err
	}
	return &CollapseResult{H: h, Classes: classes}, nil
}

// CollapseNodesAndEdges collapses duplicate hypernodes, then duplicate
// hyperedges of the reduced hypergraph (collapse_nodes_and_edges()). The
// returned classes describe the edge collapse of the node-collapsed
// hypergraph; nodeClasses describes the first stage.
func CollapseNodesAndEdges(eng *parallel.Engine, h *Hypergraph) (result *CollapseResult, nodeClasses [][]uint32, err error) {
	nodes, err := CollapseNodes(eng, h)
	if err != nil {
		return nil, nil, err
	}
	edges, err := CollapseEdges(eng, nodes.H)
	if err != nil {
		return nil, nil, err
	}
	return edges, nodes.Classes, nil
}

// equivalenceClasses groups the rows of a CSR by identical content,
// returning the classes sorted by representative (minimum member) ID. Rows
// are hashed in parallel and grouped exactly (hash collisions verified).
func equivalenceClasses(eng *parallel.Engine, c *sparse.CSR) [][]uint32 {
	n := c.NumRows()
	hashes := make([]uint64, n)
	eng.ForN(n, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			hashes[i] = hashRow(c.Row(i))
		}
	})
	byHash := map[uint64][]uint32{}
	for i := 0; i < n; i++ {
		byHash[hashes[i]] = append(byHash[hashes[i]], uint32(i))
	}
	var classes [][]uint32
	for _, group := range byHash {
		// Within a hash bucket, split by exact row equality (collision-safe).
		for len(group) > 0 {
			rep := group[0]
			var class, rest []uint32
			for _, id := range group {
				if rowsEqual(c.Row(int(rep)), c.Row(int(id))) {
					class = append(class, id)
				} else {
					rest = append(rest, id)
				}
			}
			classes = append(classes, class)
			group = rest
		}
	}
	// Canonical order: by representative ID (class slices are already
	// ascending because buckets preserve insertion order).
	sortClasses(classes)
	return classes
}

func hashRow(row []uint32) uint64 {
	// FNV-1a over the row contents plus length.
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	mix := func(x uint32) {
		for s := 0; s < 32; s += 8 {
			h ^= uint64((x >> s) & 0xff)
			h *= prime
		}
	}
	mix(uint32(len(row)))
	for _, v := range row {
		mix(v)
	}
	return h
}

func rowsEqual(a, b []uint32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func sortClasses(classes [][]uint32) {
	// Insertion sort on representative (classes counts are small relative
	// to row counts; simplicity over asymptotics here is fine).
	for i := 1; i < len(classes); i++ {
		for j := i; j > 0 && classes[j-1][0] > classes[j][0]; j-- {
			classes[j-1], classes[j] = classes[j], classes[j-1]
		}
	}
}

// EdgeSizeDist returns the histogram of hyperedge sizes: dist[d] = number
// of hyperedges with exactly d hypernodes (the Python API's
// edge_size_dist()).
func EdgeSizeDist(h *Hypergraph) []int {
	return degreeHistogram(h.EdgeDegrees())
}

// NodeDegreeDist returns the histogram of hypernode degrees.
func NodeDegreeDist(h *Hypergraph) []int {
	return degreeHistogram(h.NodeDegrees())
}

func degreeHistogram(degrees []int) []int {
	maxD := 0
	for _, d := range degrees {
		if d > maxD {
			maxD = d
		}
	}
	hist := make([]int, maxD+1)
	for _, d := range degrees {
		hist[d]++
	}
	return hist
}

// RestrictToEdges returns the sub-hypergraph induced by the given hyperedge
// IDs (renumbered 0..len-1 in the given order); hypernode IDs are kept. The
// build runs on eng; a cancelled engine returns eng.Err() and no hypergraph.
func RestrictToEdges(eng *parallel.Engine, h *Hypergraph, edgeIDs []uint32) (*Hypergraph, error) {
	bel := sparse.NewBiEdgeList(len(edgeIDs), h.NumNodes())
	for k, e := range edgeIDs {
		for _, v := range h.Edges.Row(int(e)) {
			bel.Add(uint32(k), v)
		}
	}
	return FromBiEdgeListOn(eng, bel)
}

// RestrictToNodes returns the sub-hypergraph induced by the given hypernode
// IDs (renumbered 0..len-1); hyperedges keep their IDs but lose members
// outside the set (possibly becoming empty). Cancellation as for
// RestrictToEdges.
func RestrictToNodes(eng *parallel.Engine, h *Hypergraph, nodeIDs []uint32) (*Hypergraph, error) {
	keep := make(map[uint32]uint32, len(nodeIDs))
	for k, v := range nodeIDs {
		keep[v] = uint32(k)
	}
	bel := sparse.NewBiEdgeList(h.NumEdges(), len(nodeIDs))
	for e := 0; e < h.NumEdges(); e++ {
		for _, v := range h.Edges.Row(e) {
			if nv, ok := keep[v]; ok {
				bel.Add(uint32(e), nv)
			}
		}
	}
	return FromBiEdgeListOn(eng, bel)
}

// Toplexify returns the sub-hypergraph restricted to the toplexes — the
// simplification HyperNetX calls "toplexes()": the maximal hyperedges carry
// all the set-containment information.
func Toplexify(eng *parallel.Engine, h *Hypergraph) (*Hypergraph, error) {
	return RestrictToEdges(eng, h, Toplexes(eng, h))
}
