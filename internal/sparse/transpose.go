package sparse

import (
	"sort"

	"nwhy/internal/parallel"
)

// TransposeRows is the one counting transpose every CSR in the tree is built
// by. It writes r (and the entry's value, when row yields values), for every
// source row r < n ascending and every column c of row(r), to the next free
// slot of destination row c < m in the slices seat returns — so every
// destination row comes out sorted by source row, equal entries in source
// order, without a comparison. before(r), the entry count of the rows below
// r, cuts the source rows into blocks of equal entry count that run in
// parallel on eng: a counting pass tells how often each block meets each
// column, seat turns the counts into the blocks' own write cursors (within a
// destination row, block b's slots follow block b-1's), and the scatter pass
// writes through them — no cursor is shared. On an error the destination
// holds a partial layout.
func TransposeRows(eng *parallel.Engine, n, m int, before func(r int) int64, row func(r int) ([]uint32, []float64), seat func(cur [][]int64) ([]uint32, []float64)) error {
	nb := blockCount(eng, before(n), m)
	bounds := make([]int, nb+1)
	for b := 1; b <= nb; b++ {
		bounds[b] = sort.Search(n, func(r int) bool { return before(r)*int64(nb) >= before(n)*int64(b) })
	}
	var dst []uint32
	var dstVal []float64
	return countingScatter(eng, nb, m,
		func(b int, cnt []int64) {
			for r := bounds[b]; r < bounds[b+1]; r++ {
				cols, _ := row(r)
				for _, c := range cols {
					cnt[c]++
				}
			}
		},
		func(cur [][]int64) { dst, dstVal = seat(cur) },
		func(b int, at []int64) {
			for r := bounds[b]; r < bounds[b+1]; r++ {
				cols, vals := row(r)
				for k, c := range cols {
					dst[at[c]] = uint32(r)
					if vals != nil {
						dstVal[at[c]] = vals[k]
					}
					at[c]++
				}
			}
		})
}

// blockCount is how many blocks a counting scatter of entries items into ids
// destination rows is cut into. A block's count array costs 8 B per ID: no
// more blocks than the entry volume pays for, so small or very sparse inputs
// run the serial loop.
func blockCount(eng *parallel.Engine, entries int64, ids int) int {
	return min(eng.NumWorkers(), 1+int(entries/int64(max(ids, 1))))
}

// countingScatter is the skeleton under TransposeRows and groupByCol: count
// fills one private array of m counts per block, seat (serial) turns them
// into write cursors in place, scatter writes block b's items through its
// cursors. Both parallel phases run on eng, with eng.Err() checked after
// each.
func countingScatter(eng *parallel.Engine, nb, m int, count func(b int, cnt []int64), seat func(cur [][]int64), scatter func(b int, at []int64)) error {
	cur := make([][]int64, nb)
	eng.ForEach(nb, func(b int) {
		cur[b] = make([]int64, m)
		count(b, cur[b])
	})
	if err := eng.Err(); err != nil {
		return err
	}
	seat(cur)
	eng.ForEach(nb, func(b int) { scatter(b, cur[b]) })
	return eng.Err()
}

// seatRows lays m destination rows out back to back: it returns their row
// offsets and leaves in cur each block's first slot in every row.
func seatRows(m int, cur [][]int64) []int64 {
	rowptr := make([]int64, m+1)
	at := int64(0)
	for c := 0; c < m; c++ {
		rowptr[c] = at
		for _, cnt := range cur {
			cnt[c], at = at, at+cnt[c]
		}
	}
	rowptr[m] = at
	return rowptr
}

// TransposeOn is Transpose on engine eng: TransposeRows over CSR storage,
// weights carried along, adopted through AdoptSorted's validation. c's own
// rows need not be sorted. A cancelled engine returns eng.Err().
func TransposeOn(eng *parallel.Engine, c *CSR) (*CSR, error) {
	t := &CSR{nrows: c.ncols, ncols: c.nrows, Col: make([]uint32, len(c.Col))}
	if c.Val != nil {
		t.Val = make([]float64, len(c.Col))
	}
	err := TransposeRows(eng, c.nrows, c.ncols,
		func(r int) int64 { return c.RowPtr[r] },
		func(r int) ([]uint32, []float64) { return c.Row(r), c.RowVal(r) },
		func(cur [][]int64) ([]uint32, []float64) {
			t.RowPtr = seatRows(t.nrows, cur)
			return t.Col, t.Val
		})
	if err != nil {
		return nil, err
	}
	return AdoptSorted(eng, t.nrows, t.ncols, t.RowPtr, t.Col, t.Val)
}

// groupByCol is the stable counting scatter that turns a pair list into
// storage: the ncols x nrows structure whose row v lists the U of every pair
// (U, v) in input order (weights alongside). Its rows are sorted exactly
// when the list's U are non-decreasing; it is not validated, and partial
// next to an error.
func groupByCol(eng *parallel.Engine, nrows, ncols int, pairs []Edge, weights []float64) (*CSR, error) {
	g := &CSR{nrows: ncols, ncols: nrows, Col: make([]uint32, len(pairs))}
	if weights != nil {
		g.Val = make([]float64, len(pairs))
	}
	nb := blockCount(eng, int64(len(pairs)), ncols)
	lo := func(b int) int { return b * len(pairs) / nb }
	err := countingScatter(eng, nb, ncols,
		func(b int, cnt []int64) {
			for _, p := range pairs[lo(b):lo(b+1)] {
				cnt[p.V]++
			}
		},
		func(cur [][]int64) { g.RowPtr = seatRows(ncols, cur) },
		func(b int, at []int64) {
			for i := lo(b); i < lo(b+1); i++ {
				p := pairs[i]
				g.Col[at[p.V]] = p.U
				if weights != nil {
					g.Val[at[p.V]] = weights[i]
				}
				at[p.V]++
			}
		})
	return g, err
}

// dedupRows drops, in place, every entry equal to its predecessor in a row,
// keeping the first one's value. On sorted rows that removes all duplicates.
// Rows are first scanned for a repeat in parallel on eng, so a structure
// without one — the usual case — is not rewritten; the rewrite is serial. A
// cancelled scan may miss repeats: callers check eng.Err() before trusting
// the result (the transpose that follows every call does).
func (c *CSR) dedupRows(eng *parallel.Engine) {
	repeats := parallel.ReduceWith(eng, c.nrows, false, func(lo, hi int, found bool) bool {
		for r := lo; r < hi && !found; r++ {
			row := c.Row(r)
			for k := 1; k < len(row); k++ {
				if row[k] == row[k-1] {
					return true
				}
			}
		}
		return found
	}, func(a, b bool) bool { return a || b })
	if !repeats {
		return
	}
	w := int64(0)
	for r := 0; r < c.nrows; r++ {
		lo, hi := c.RowPtr[r], c.RowPtr[r+1]
		c.RowPtr[r] = w
		for k := lo; k < hi; k++ {
			if k > lo && c.Col[k] == c.Col[k-1] {
				continue
			}
			c.Col[w] = c.Col[k]
			if c.Val != nil {
				c.Val[w] = c.Val[k]
			}
			w++
		}
	}
	c.RowPtr[c.nrows] = w
	c.Col = c.Col[:w]
	if c.Val != nil {
		c.Val = c.Val[:w]
	}
}
