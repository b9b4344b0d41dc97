package slinegraph

import (
	"sort"

	"nwhy/internal/parallel"
	"nwhy/internal/sparse"
)

// edgeRun locates the upper neighbours of one hyperedge e — the f > e the
// kernel emitted for it — in the buffer of the worker that processed e.
type edgeRun struct {
	off int   // start of the run in that worker's buffer
	n   int32 // upper degree of e
	w   int32 // the worker
}

// runCollector is the kernel's threshold-mode output stage: one run of
// neighbour IDs per hyperedge, not a pair list. Every schedule hands a
// hyperedge to exactly one worker, once, and a counter yields all of its
// neighbours before the next one starts: a run is contiguous, runs[e] has a
// single writer.
type runCollector struct {
	runs []edgeRun  // by hyperedge ID
	bufs [][]uint32 // by worker: its runs back to back, from eng's arenas
}

// collect runs the kernel in threshold mode into a fresh collector.
func collect(eng *parallel.Engine, in Input, s int, o Options) (*runCollector, error) {
	c := &runCollector{runs: make([]edgeRun, in.IDSpace()), bufs: make([][]uint32, eng.NumWorkers())}
	for w := range c.bufs {
		c.bufs[w] = eng.GrabU32(w)
	}
	err := construct(eng, in, s, o, false, func(w int, e, f uint32, _ int32) {
		r := &c.runs[e]
		if r.n == 0 {
			r.off, r.w = len(c.bufs[w]), int32(w)
		}
		r.n++
		c.bufs[w] = append(c.bufs[w], f)
	})
	return c, err
}

// release recycles the run buffers once nothing reads the runs any more.
func (c *runCollector) release(eng *parallel.Engine) {
	for w, buf := range c.bufs {
		eng.StashU32(w, buf)
	}
}

// upper returns the neighbours f > e of hyperedge e, in emit order.
func (c *runCollector) upper(e int) []uint32 {
	r := c.runs[e]
	return c.bufs[r.w][r.off : r.off+int(r.n)]
}

// transpose writes r, for every row r < n ascending and every column c of
// row(r), to the next free slot of column c in the slice seat returns, so
// each column's slots come out sorted without a comparison. before(r), the
// entry count of the rows below r, cuts the rows into nb blocks of equal
// entry count that run in parallel on eng: a counting pass tells how often
// each block meets each column, seat turns the counts into the blocks' own
// write cursors (within a column, block b's slots follow block b-1's), and
// the scatter pass writes through them — no cursor is shared.
func transpose(eng *parallel.Engine, n, nb int, before func(r int) int64, row func(r int) []uint32, seat func(cur [][]int64) []uint32) error {
	bounds := make([]int, nb+1)
	for b := 1; b <= nb; b++ {
		bounds[b] = sort.Search(n, func(r int) bool { return before(r)*int64(nb) >= before(n)*int64(b) })
	}
	cur := make([][]int64, nb)
	eng.ForEach(nb, func(b int) {
		cnt := make([]int64, n)
		for r := bounds[b]; r < bounds[b+1]; r++ {
			for _, c := range row(r) {
				cnt[c]++
			}
		}
		cur[b] = cnt
	})
	if err := eng.Err(); err != nil {
		return err
	}
	dst := seat(cur)
	eng.ForEach(nb, func(b int) {
		at := cur[b]
		for r := bounds[b]; r < bounds[b+1]; r++ {
			for _, c := range row(r) {
				dst[at[c]] = uint32(r)
				at[c]++
			}
		}
	})
	return eng.Err()
}

// assemble builds the symmetric s-line adjacency from the collected runs.
// Row e is its neighbours below e, [rowptr[e], mid[e]), then those above,
// [mid[e], rowptr[e+1]). Transposing the (unsorted) upper runs fills every
// lower part in ascending order, transposing the lower parts back fills
// every upper part in ascending order: each row is sorted as laid out. On
// an error the slices hold a partial layout.
func (c *runCollector) assemble(eng *parallel.Engine) (rowptr []int64, col []uint32, err error) {
	n := len(c.runs)
	above := make([]int64, n+1) // above[e]: upper neighbours of the rows below e
	for e, r := range c.runs {
		above[e+1] = above[e] + int64(r.n)
	}
	// A block's count array costs 8 B per ID: no more blocks than the pair
	// volume pays for.
	nb := min(eng.NumWorkers(), 1+int(above[n]/int64(max(n, 1))))
	rowptr, mid := make([]int64, n+1), make([]int64, n)
	err = transpose(eng, n, nb, func(e int) int64 { return above[e] }, c.upper, func(cur [][]int64) []uint32 {
		at := int64(0)
		for f := range mid {
			rowptr[f] = at
			for _, cnt := range cur {
				cnt[f], at = at, at+cnt[f]
			}
			mid[f] = at
			at += int64(c.runs[f].n)
		}
		rowptr[n] = at
		col = make([]uint32, at)
		return col
	})
	if err != nil {
		return nil, nil, err
	}
	lower := func(f int) []uint32 { return col[rowptr[f]:mid[f]] }
	err = transpose(eng, n, nb, func(f int) int64 { return rowptr[f] - above[f] }, lower, func(cur [][]int64) []uint32 {
		for e, at := range mid {
			for _, cnt := range cur {
				cnt[e], at = at, at+cnt[e]
			}
		}
		return col
	})
	return rowptr, col, err
}

// ConstructCSR runs the kernel and assembles the symmetric s-line adjacency
// directly into a sparse.CSR over in's ID space — the fast path consumed by
// smetrics.Build. No pair list ever exists, every phase runs on eng, and the
// rows come out sorted, so the CSR is adopted (fully validated) unsorted.
func ConstructCSR(eng *parallel.Engine, in Input, s int, o Options) (*sparse.CSR, error) {
	c, err := collect(eng, in, s, o)
	if err != nil {
		return nil, err
	}
	defer c.release(eng)
	rowptr, col, err := c.assemble(eng)
	if err != nil {
		return nil, err
	}
	return sparse.AdoptSorted(len(c.runs), len(c.runs), rowptr, col, nil)
}

// Construct returns the canonical s-line edge list (U < V, sorted, nil when
// empty): the upper triangle of ConstructCSR's rows, read off in row order.
func Construct(eng *parallel.Engine, in Input, s int, o Options) ([]sparse.Edge, error) {
	csr, err := ConstructCSR(eng, in, s, o)
	if err != nil {
		return nil, err
	}
	return csr.UpperTriangle(), nil
}
