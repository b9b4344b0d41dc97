package sparse

import (
	"nwhy/internal/parallel"
)

// Order selects a relabel-by-degree direction. Relabeling by degree
// (permute-by-row/column) improves workload distribution and memory access
// patterns for skewed inputs; the paper notes it cannot be applied to adjoin
// graphs directly because it would intermingle hyperedge and hypernode IDs —
// the motivation for the queue-based s-line-graph algorithms.
type Order int

const (
	// NoOrder leaves IDs as they are.
	NoOrder Order = iota
	// Ascending gives the smallest IDs to the lowest-degree vertices.
	Ascending
	// Descending gives the smallest IDs to the highest-degree vertices.
	Descending
)

func (o Order) String() string {
	switch o {
	case Ascending:
		return "ascending"
	case Descending:
		return "descending"
	default:
		return "none"
	}
}

// DegreePerm computes the relabel-by-degree permutation for the given
// degrees: perm[newID] = oldID, inv[oldID] = newID. Ties break by old ID so
// the permutation is deterministic (the radix sort is stable over the
// identity-initialized permutation). NoOrder returns identity permutations.
func DegreePerm(degrees []int, order Order) (perm, inv []uint32) {
	n := len(degrees)
	perm = make([]uint32, n)
	for i := range perm {
		perm[i] = uint32(i)
	}
	switch order {
	case Ascending:
		parallel.RadixSort64(perm, func(id uint32) uint64 { return uint64(degrees[id]) })
	case Descending:
		// Key on maxDeg−deg rather than a bit flip so the pass count stays
		// proportional to the degree range.
		maxDeg := 0
		for _, d := range degrees {
			if d > maxDeg {
				maxDeg = d
			}
		}
		parallel.RadixSort64(perm, func(id uint32) uint64 { return uint64(maxDeg - degrees[id]) })
	}
	return perm, InvertPerm(perm)
}

// InvertPerm returns the inverse of a permutation: inv[perm[i]] = i. With
// perm[newID] = oldID the result reads inv[oldID] = newID.
func InvertPerm(perm []uint32) []uint32 {
	inv := make([]uint32, len(perm))
	for newID, oldID := range perm {
		inv[oldID] = uint32(newID)
	}
	return inv
}

// ApplyPerm is the one permutation primitive every relabeling shares. It
// returns a copy of c with its row space permuted by rowPerm (row newID of
// the result is row rowPerm[newID] of the input) and every column value v
// replaced by colInv[v], re-sorting rows when a column map is applied so the
// sorted-rows invariant holds. Either argument may be nil for identity; both
// nil degrades to Clone. rowPerm must be a permutation of [0, NumRows()) and
// colInv a permutation of [0, NumCols()) — composing ApplyPerm(rowPerm,
// colInv) with ApplyPerm(InvertPerm(rowPerm), InvertPerm(colInv)) yields a
// CSR byte-identical to the input.
func (c *CSR) ApplyPerm(rowPerm, colInv []uint32) *CSR {
	out := &CSR{nrows: c.nrows, ncols: c.ncols}
	out.RowPtr = make([]int64, c.nrows+1)
	if rowPerm == nil {
		copy(out.RowPtr, c.RowPtr)
	} else {
		for newID, oldID := range rowPerm {
			out.RowPtr[newID+1] = out.RowPtr[newID] + int64(c.Degree(int(oldID)))
		}
	}
	out.Col = make([]uint32, len(c.Col))
	if c.Val != nil {
		out.Val = make([]float64, len(c.Val))
	}
	parallel.For(c.nrows, func(_, lo, hi int) {
		for newID := lo; newID < hi; newID++ {
			oldID := newID
			if rowPerm != nil {
				oldID = int(rowPerm[newID])
			}
			dst := out.Col[out.RowPtr[newID]:out.RowPtr[newID+1]]
			copy(dst, c.Row(oldID))
			if colInv != nil {
				for k, v := range dst {
					dst[k] = colInv[v]
				}
			}
			if c.Val != nil {
				copy(out.Val[out.RowPtr[newID]:out.RowPtr[newID+1]], c.RowVal(oldID))
			}
		}
	})
	if colInv != nil {
		// The map unsorted the rows: transposing there and back sorts them.
		out = out.Transpose().Transpose()
	}
	return out
}

// RelabelHyperedges renames the hyperedge index space of a mutually indexed
// biadjacency pair by degree: row newID of the returned edges CSR is row
// perm[newID] of the input, and every hyperedge ID appearing in the nodes
// CSR is mapped through inv. Hypernode IDs are untouched. It returns the
// relabeled pair plus perm (perm[newID] = oldID) for mapping results back.
func RelabelHyperedges(edges, nodes *CSR, order Order) (redges, rnodes *CSR, perm []uint32) {
	if order == NoOrder {
		return edges, nodes, identityPerm(edges.NumRows())
	}
	perm, inv := DegreePerm(edges.Degrees(), order)
	redges = edges.ApplyPerm(perm, nil)
	rnodes = nodes.ApplyPerm(nil, inv)
	return redges, rnodes, perm
}

// RelabelSquare relabels a square adjacency by degree, permuting both rows
// and column values. Returns the relabeled graph and perm[newID] = oldID.
func RelabelSquare(g *CSR, order Order) (*CSR, []uint32) {
	if order == NoOrder {
		return g, identityPerm(g.NumRows())
	}
	perm, inv := DegreePerm(g.Degrees(), order)
	return g.ApplyPerm(perm, inv), perm
}

func identityPerm(n int) []uint32 {
	p := make([]uint32, n)
	for i := range p {
		p[i] = uint32(i)
	}
	return p
}
