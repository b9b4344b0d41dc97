package sparse

import (
	"fmt"
	"sort"

	"nwhy/internal/parallel"
)

// Overlay is the mutable delta view over a frozen CSR: the base structure
// stays exactly as built (immutable, shared with every reader of the old
// snapshot), while insertions accumulate in append-only delta rows and
// deletions in a tombstone bitmap. Row IDs are stable across mutation —
// queries that captured an ID keep meaning the same row — and dead IDs are
// recycled through a LIFO free-list, so long-lived mutable structures do not
// leak ID space.
//
// An Overlay is a single-writer structure: one goroutine mutates it (the
// facade serializes writers per handle), and it is never read concurrently
// with mutation. Compact folds base plus deltas minus tombstones into a
// fresh frozen CSR (row-wise copies, AdoptSorted revalidation), which becomes
// the next immutable snapshot.
type Overlay struct {
	base         *CSR
	nrows, ncols int

	tomb []uint64 // tombstone bitmap over [0, nrows)

	// Delta rows: each live inserted row is a window of deltaCol. The
	// storage is append-only; deleting a delta row abandons its window
	// until the next Compact.
	rows     map[uint32]deltaRow
	deltaCol []uint32

	free []uint32 // dead row IDs available for recycling (LIFO)

	inserts, deletes int
}

// deltaRow is one inserted row's window into the overlay's column storage.
type deltaRow struct {
	start, end int
}

// NewOverlay builds an empty overlay over base. Weighted structures are
// rejected: the mutation surface carries no per-incidence weights, and
// silently dropping the base's would corrupt weighted queries.
func NewOverlay(base *CSR) (*Overlay, error) {
	if base.Val != nil {
		return nil, fmt.Errorf("sparse: overlay over weighted CSR not supported")
	}
	return &Overlay{
		base:  base,
		nrows: base.NumRows(),
		ncols: base.NumCols(),
		tomb:  make([]uint64, (base.NumRows()+63)/64),
		rows:  map[uint32]deltaRow{},
	}, nil
}

// Base returns the frozen CSR the overlay was built over.
func (o *Overlay) Base() *CSR { return o.base }

// NumRows reports the current row ID space (base rows plus appended rows;
// dead rows still count — IDs are stable).
func (o *Overlay) NumRows() int { return o.nrows }

// NumCols reports the current column ID space.
func (o *Overlay) NumCols() int { return o.ncols }

// GrowCols widens the column ID space to at least n (never shrinks).
func (o *Overlay) GrowCols(n int) {
	if n > o.ncols {
		o.ncols = n
	}
}

// Inserts reports the number of InsertRow calls since construction.
func (o *Overlay) Inserts() int { return o.inserts }

// Deletes reports the number of DeleteRow calls since construction — the
// overlay's tombstone epoch: incremental consumers that cached results at
// Deletes() == 0 may absorb insertions but must recompute once it moves.
func (o *Overlay) Deletes() int { return o.deletes }

// Dead reports whether row i is tombstoned.
func (o *Overlay) Dead(i uint32) bool {
	return o.tomb[i>>6]&(1<<(i&63)) != 0
}

func (o *Overlay) setDead(i uint32)   { o.tomb[i>>6] |= 1 << (i & 63) }
func (o *Overlay) clearDead(i uint32) { o.tomb[i>>6] &^= 1 << (i & 63) }

// Row returns the live column IDs of row i (sorted, deduplicated). Dead
// rows yield nil. The slice aliases base or delta storage and must not be
// modified.
func (o *Overlay) Row(i uint32) []uint32 {
	if int(i) >= o.nrows || o.Dead(i) {
		return nil
	}
	if w, ok := o.rows[i]; ok {
		return o.deltaCol[w.start:w.end]
	}
	if int(i) < o.base.NumRows() {
		return o.base.Row(int(i))
	}
	return nil
}

// Degree reports the live entry count of row i (0 for dead rows).
func (o *Overlay) Degree(i uint32) int { return len(o.Row(i)) }

// InsertRow adds a new row holding cols (copied, sorted, deduplicated) and
// returns its ID: a recycled tombstoned ID when the free-list is non-empty,
// a fresh ID at the end of the row space otherwise. Column IDs beyond the
// current column space grow it.
func (o *Overlay) InsertRow(cols []uint32) uint32 {
	start := len(o.deltaCol)
	o.deltaCol = append(o.deltaCol, cols...)
	w := o.deltaCol[start:]
	sort.Slice(w, func(a, b int) bool { return w[a] < w[b] })
	k := start
	for j, v := range w {
		if j > 0 && v == w[j-1] {
			continue
		}
		o.deltaCol[k] = v
		k++
	}
	o.deltaCol = o.deltaCol[:k]
	if k > start {
		if top := int(o.deltaCol[k-1]) + 1; top > o.ncols {
			o.ncols = top
		}
	}

	var id uint32
	if n := len(o.free); n > 0 {
		id = o.free[n-1]
		o.free = o.free[:n-1]
		o.clearDead(id)
	} else {
		id = uint32(o.nrows)
		o.nrows++
		if need := (o.nrows + 63) / 64; need > len(o.tomb) {
			o.tomb = append(o.tomb, make([]uint64, need-len(o.tomb))...)
		}
	}
	o.rows[id] = deltaRow{start: start, end: k}
	o.inserts++
	return id
}

// DeleteRow tombstones row id and recycles its ID through the free-list.
// Deleting a dead or out-of-range row is an error.
func (o *Overlay) DeleteRow(id uint32) error {
	if int(id) >= o.nrows {
		return fmt.Errorf("sparse: delete of row %d outside [0,%d)", id, o.nrows)
	}
	if o.Dead(id) {
		return fmt.Errorf("sparse: delete of already-dead row %d", id)
	}
	delete(o.rows, id) // delta storage, if any, is abandoned until Compact
	o.setDead(id)
	o.free = append(o.free, id)
	o.deletes++
	return nil
}

// Compact folds the overlay into a fresh frozen CSR: live base rows are
// block-copied, live delta rows take their windows, dead rows become empty
// rows (their IDs stay reserved for the free-list). Rows keep their order, so
// nothing is sorted or transposed: a parallel per-row degree count, a serial
// prefix sum into row offsets, a parallel row-wise copy — every task on e —
// then AdoptSorted revalidates the full invariant set before adoption. A
// cancelled engine aborts with its error.
func (o *Overlay) Compact(e *parallel.Engine) (*CSR, error) {
	n := o.nrows
	rowptr := make([]int64, n+1)
	e.For(e.Blocked(0, n), func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			rowptr[i+1] = int64(o.Degree(uint32(i)))
		}
	})
	if err := e.Err(); err != nil {
		return nil, err
	}
	for i := 0; i < n; i++ {
		rowptr[i+1] += rowptr[i]
	}
	col := make([]uint32, rowptr[n])
	e.For(e.Blocked(0, n), func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			copy(col[rowptr[i]:rowptr[i+1]], o.Row(uint32(i)))
		}
	})
	if err := e.Err(); err != nil {
		return nil, err
	}
	return AdoptSorted(e, n, o.ncols, rowptr, col, nil)
}
