package slinegraph

import (
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

// assemble builds the symmetric s-line adjacency from the collected runs.
// Row e is its neighbours below e, [rowptr[e], mid[e]), then those above,
// [mid[e], rowptr[e+1]). Transposing the (unsorted) upper runs fills every
// lower part in ascending order, transposing the lower parts back fills
// every upper part in ascending order (sparse.TransposeRows, twice): each
// row is sorted as laid out. On an error the slices hold a partial layout.
func (c *runCollector) assemble(eng *parallel.Engine) (rowptr []int64, col []uint32, err error) {
	n := len(c.runs)
	above := make([]int64, n+1) // above[e]: upper neighbours of the rows below e
	for e, r := range c.runs {
		above[e+1] = above[e] + int64(r.n)
	}
	rowptr, mid := make([]int64, n+1), make([]int64, n)
	upper := func(e int) ([]uint32, []float64) { return c.upper(e), nil }
	err = sparse.TransposeRows(eng, n, n, func(e int) int64 { return above[e] }, upper, func(cur [][]int64) ([]uint32, []float64) {
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
		return col, nil
	})
	if err != nil {
		return nil, nil, err
	}
	lower := func(f int) ([]uint32, []float64) { return col[rowptr[f]:mid[f]], nil }
	err = sparse.TransposeRows(eng, n, n, func(f int) int64 { return rowptr[f] - above[f] }, lower, func(cur [][]int64) ([]uint32, []float64) {
		for e, at := range mid {
			for _, cnt := range cur {
				cnt[e], at = at, at+cnt[e]
			}
		}
		return col, nil
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
