package sparse

import (
	"fmt"
	"sort"

	"nwhy/internal/parallel"
)

// CSR is a rectangular compressed-sparse-row structure: NumRows() row index
// spaces mapping to column IDs in [0, NumCols()). It implements the paper's
// biadjacency (Listing 1) when rows are hyperedges and columns hypernodes
// (or vice versa for the dual), and a square adjacency when rows == cols.
//
// The layout is the classic pair: RowPtr has len nrows+1, and row i's
// neighbors are Col[RowPtr[i]:RowPtr[i+1]]. Val, when non-nil, aligns with
// Col and carries per-incidence weights.
type CSR struct {
	nrows, ncols int
	RowPtr       []int64
	Col          []uint32
	Val          []float64
}

// NumRows reports the size of the row index space.
func (c *CSR) NumRows() int { return c.nrows }

// NumCols reports the size of the column index space.
func (c *CSR) NumCols() int { return c.ncols }

// NumEdges reports the number of stored entries.
func (c *CSR) NumEdges() int { return len(c.Col) }

// Row returns row i's column IDs. The slice aliases internal storage and
// must not be modified.
func (c *CSR) Row(i int) []uint32 { return c.Col[c.RowPtr[i]:c.RowPtr[i+1]] }

// RowVal returns row i's weights, aligned with Row(i). Nil when unweighted.
func (c *CSR) RowVal(i int) []float64 {
	if c.Val == nil {
		return nil
	}
	return c.Val[c.RowPtr[i]:c.RowPtr[i+1]]
}

// Degree reports the number of entries in row i.
func (c *CSR) Degree(i int) int { return int(c.RowPtr[i+1] - c.RowPtr[i]) }

// Degrees returns the degree of every row: the degrees() accessor of the
// paper's biadjacency. It is one serial pass over RowPtr — O(rows) reads of
// one array, which a parallel loop does not pay for.
func (c *CSR) Degrees() []int {
	d := make([]int, c.nrows)
	for i := range d {
		d[i] = c.Degree(i)
	}
	return d
}

// MaxDegree returns the largest row degree, or 0 for an empty structure
// (one serial pass over RowPtr, like Degrees).
func (c *CSR) MaxDegree() int {
	m := 0
	for i := 0; i < c.nrows; i++ {
		m = max(m, c.Degree(i))
	}
	return m
}

// AvgDegree returns the mean row degree.
func (c *CSR) AvgDegree() float64 {
	if c.nrows == 0 {
		return 0
	}
	return float64(len(c.Col)) / float64(c.nrows)
}

// HasEntry reports whether (row, col) is stored. Rows must be sorted (CSR
// builders in this package always sort rows).
func (c *CSR) HasEntry(row int, col uint32) bool {
	r := c.Row(row)
	k := sort.Search(len(r), func(i int) bool { return r[i] >= col })
	return k < len(r) && r[k] == col
}

// UpperTriangle returns the entries (i, j) with j > i in row order: for a
// symmetric adjacency with sorted rows, its canonical undirected edge list
// (U < V, sorted). nil when there is none.
func (c *CSR) UpperTriangle() []Edge {
	var out []Edge
	for i := 0; i < c.nrows; i++ {
		for _, j := range c.Row(i) {
			if j > uint32(i) {
				if out == nil {
					out = make([]Edge, 0, len(c.Col)/2)
				}
				out = append(out, Edge{U: uint32(i), V: j})
			}
		}
	}
	return out
}

// KeepAtLeast returns the unweighted CSR of c's entries whose value is at
// least t, each row in c's order (sorted when c's are): count per row,
// prefix sum, copy, both row passes on eng. Over the overlap-weighted s-line
// base this is the s-line graph at every larger s. c must carry values. A
// cancelled engine returns eng.Err().
func (c *CSR) KeepAtLeast(eng *parallel.Engine, t float64) (*CSR, error) {
	rowptr := make([]int64, c.nrows+1)
	eng.ForN(c.nrows, func(_, lo, hi int) {
		for r := lo; r < hi; r++ {
			for _, v := range c.RowVal(r) {
				if v >= t {
					rowptr[r+1]++
				}
			}
		}
	})
	if err := eng.Err(); err != nil {
		return nil, err // the counts are partial: nothing to copy by
	}
	for r := 0; r < c.nrows; r++ {
		rowptr[r+1] += rowptr[r]
	}
	col := make([]uint32, rowptr[c.nrows])
	eng.ForN(c.nrows, func(_, lo, hi int) {
		for r := lo; r < hi; r++ {
			at, vals := rowptr[r], c.RowVal(r)
			for k, f := range c.Row(r) {
				if vals[k] >= t {
					col[at] = f
					at++
				}
			}
		}
	})
	if err := eng.Err(); err != nil {
		return nil, err
	}
	return AdoptSorted(eng, c.nrows, c.ncols, rowptr, col, nil)
}

// Validate checks structural invariants: monotone RowPtr, in-range columns,
// sorted rows.
func (c *CSR) Validate() error {
	if err := c.validateShape(); err != nil {
		return err
	}
	for i := 0; i < c.nrows; i++ {
		if err := c.validateRow(i); err != nil {
			return err
		}
	}
	return nil
}

func (c *CSR) validateShape() error {
	if len(c.RowPtr) != c.nrows+1 {
		return fmt.Errorf("sparse: RowPtr length %d for %d rows", len(c.RowPtr), c.nrows)
	}
	if c.RowPtr[0] != 0 || c.RowPtr[c.nrows] != int64(len(c.Col)) {
		return fmt.Errorf("sparse: RowPtr endpoints %d..%d for %d entries", c.RowPtr[0], c.RowPtr[c.nrows], len(c.Col))
	}
	return nil
}

func (c *CSR) validateRow(i int) error {
	if c.RowPtr[i] > c.RowPtr[i+1] || c.RowPtr[i] < 0 || c.RowPtr[i+1] > int64(len(c.Col)) {
		return fmt.Errorf("sparse: RowPtr out of order at row %d", i)
	}
	row := c.Row(i)
	for k, v := range row {
		if int(v) >= c.ncols {
			return fmt.Errorf("sparse: row %d entry %d out of range [0,%d)", i, v, c.ncols)
		}
		if k > 0 && row[k-1] > v {
			return fmt.Errorf("sparse: row %d not sorted", i)
		}
	}
	return nil
}

// FromPairs builds a CSR with nrows x ncols dimensions from (row, col)
// pairs on the shared engine: a stable counting scatter groups the pairs by
// column, one counting transpose turns that row-major — every row sorted,
// equal pairs (and their weights) in input order. Duplicate pairs are kept;
// BiAdjacency is the build that drops them.
func FromPairs(nrows, ncols int, pairs []Edge, weights []float64) *CSR {
	return must(FromPairsOn(shared(), nrows, ncols, pairs, weights))
}

// FromPairsOn is FromPairs on engine e. A cancelled engine returns e.Err()
// and no CSR.
func FromPairsOn(e *parallel.Engine, nrows, ncols int, pairs []Edge, weights []float64) (*CSR, error) {
	g, err := groupByCol(e, nrows, ncols, pairs, weights)
	if err != nil {
		return nil, err
	}
	return TransposeOn(e, g)
}

// shared is the engine under the engine-less builders (FromPairs,
// BiAdjacency, Transpose, EdgeList.Sort, BiEdgeList.Dedup). It has no
// context, so it is never cancelled.
func shared() *parallel.Engine {
	return parallel.SharedEngine() //nwhy:nolint(engine-first) the engine-less builders are shims over the On forms
}

// must unwraps a build on the shared engine, where only malformed input —
// an entry outside the declared dimensions — can fail.
func must(c *CSR, err error) *CSR {
	if err != nil {
		panic(err)
	}
	return c
}

// AdoptSorted adopts prebuilt CSR storage whose rows are already sorted —
// the snapshot-load fast path and the s-overlap kernel's assembly, which lay
// their rows out in order and must not pay a per-row sort. The full
// structural invariant set is checked before adoption (including val/col
// alignment, which Validate does not see), so a corrupted or hand-forged
// payload is rejected instead of producing a CSR that violates the
// sorted-rows contract HasEntry and the merge kernels rely on. The rows are
// checked in parallel on e — the error reported is the lowest bad row's, as
// Validate's would be — and a cancelled engine returns e.Err(), never an
// unchecked CSR. The caller must not reuse the slices afterwards.
func AdoptSorted(e *parallel.Engine, nrows, ncols int, rowptr []int64, col []uint32, val []float64) (*CSR, error) {
	if val != nil && len(val) != len(col) {
		return nil, fmt.Errorf("sparse: %d values for %d columns", len(val), len(col))
	}
	c := &CSR{nrows: nrows, ncols: ncols, RowPtr: rowptr, Col: col, Val: val}
	if err := c.validateShape(); err != nil {
		return nil, err
	}
	bad := parallel.ReduceWith(e, nrows, nrows, func(lo, hi, bad int) int {
		for i := lo; i < hi && i < bad; i++ {
			if c.validateRow(i) != nil {
				return i
			}
		}
		return bad
	}, func(a, b int) int { return min(a, b) })
	if err := e.Err(); err != nil {
		return nil, err
	}
	if bad < nrows {
		return nil, c.validateRow(bad)
	}
	return c, nil
}

// FromEdgeList builds a square CSR adjacency from a single-index-space edge
// list. Each listed edge is stored as a directed entry; callers wanting an
// undirected graph should Symmetrize the list first.
func FromEdgeList(el *EdgeList) *CSR {
	return FromPairs(el.NumVertices, el.NumVertices, el.Edges, nil)
}

// BiAdjacency builds the two mutually indexed incidence structures of a
// hypergraph from a bipartite edge list (the paper's
// biadjacency<0>/biadjacency<1> pair) on the shared engine: edges maps each
// hyperedge to its incident hypernodes, nodes maps each hypernode to its
// incident hyperedges. See BiAdjacencyOn.
func BiAdjacency(bel *BiEdgeList) (edges, nodes *CSR) {
	edges, nodes, err := BiAdjacencyOn(shared(), bel)
	return must(edges, err), nodes
}

// BiAdjacencyOn is BiAdjacency on engine e, by counting transposes instead
// of a pair sort: the incidences are grouped by hypernode (groupByCol),
// which is already the sorted node incidence when the list runs in
// hyperedge order, as files and generators write it; any other order costs
// one transpose to the hyperedge side first. Repeated incidences sit next to
// each other in a sorted row and are dropped there (the first weight wins),
// and the other side is the transpose of the deduplicated one. bel is not
// modified. A cancelled engine returns e.Err().
func BiAdjacencyOn(e *parallel.Engine, bel *BiEdgeList) (edges, nodes *CSR, err error) {
	g, err := groupByCol(e, bel.N0, bel.N1, bel.Edges, bel.Weights)
	if err != nil {
		return nil, nil, err
	}
	if inRowOrder(bel.Edges) {
		g.dedupRows(e)
		if nodes, err = AdoptSorted(e, g.nrows, g.ncols, g.RowPtr, g.Col, g.Val); err == nil {
			edges, err = TransposeOn(e, nodes)
		}
	} else if edges, err = TransposeOn(e, g); err == nil {
		edges.dedupRows(e)
		nodes, err = TransposeOn(e, edges)
	}
	if err != nil {
		return nil, nil, err
	}
	return edges, nodes, nil
}

// inRowOrder reports whether the pairs' U are non-decreasing.
func inRowOrder(pairs []Edge) bool {
	for i := 1; i < len(pairs); i++ {
		if pairs[i-1].U > pairs[i].U {
			return false
		}
	}
	return true
}

// Transpose returns the CSR of the transposed matrix on the shared engine:
// entry (i, j) becomes (j, i). For a hypergraph incidence structure this is
// the dual.
func (c *CSR) Transpose() *CSR {
	return must(TransposeOn(shared(), c))
}

// Clone returns a deep copy.
func (c *CSR) Clone() *CSR {
	out := &CSR{nrows: c.nrows, ncols: c.ncols}
	out.RowPtr = append([]int64(nil), c.RowPtr...)
	out.Col = append([]uint32(nil), c.Col...)
	if c.Val != nil {
		out.Val = append([]float64(nil), c.Val...)
	}
	return out
}

// Equal reports whether two CSRs have identical dimensions and entries.
func (c *CSR) Equal(o *CSR) bool {
	if c.nrows != o.nrows || c.ncols != o.ncols || len(c.Col) != len(o.Col) {
		return false
	}
	for i := range c.RowPtr {
		if c.RowPtr[i] != o.RowPtr[i] {
			return false
		}
	}
	for i := range c.Col {
		if c.Col[i] != o.Col[i] {
			return false
		}
	}
	return true
}
