package sparse

import (
	"nwhy/internal/parallel"
)

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
