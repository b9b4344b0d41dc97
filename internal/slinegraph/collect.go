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

// runCollector is the kernel's one output stage: one run of neighbour IDs
// per hyperedge, not a pair list. Every schedule hands a hyperedge to
// exactly one worker, once, and a counter yields all of its neighbours
// before the next one starts: a run is contiguous, runs[e] has a single
// writer.
type runCollector struct {
	runs  []edgeRun    // by hyperedge ID
	out   []workerRuns // by worker
	exact bool         // whether out carries vals
}

// workerRuns is one worker's output, from eng's arenas: its runs back to
// back and, after an exact run, |e ∩ f| of each entry beside them.
type workerRuns struct {
	ids  []uint32
	vals []float64
}

// valsKey is the arena key the value buffers are recycled under.
const valsKey = "slinegraph.collect.vals"

// collect runs the kernel into a fresh collector. With exact set the
// counters yield true overlaps and the collector keeps them beside the
// neighbours; without it no value is stored and counters may stop at s.
func collect(eng *parallel.Engine, in Input, s int, o Options, exact bool) (*runCollector, error) {
	c := &runCollector{runs: make([]edgeRun, in.IDSpace()), out: make([]workerRuns, eng.NumWorkers()), exact: exact}
	for w := range c.out {
		c.out[w].ids = eng.GrabU32(w)
	}
	// The threshold run pays for no value column: two closures, no per-emit
	// branch.
	emit := func(w int, e, f uint32, _ int32) {
		out := c.open(w, e)
		out.ids = append(out.ids, f)
	}
	if exact {
		for w := range c.out {
			if v, ok := eng.Grab(w, valsKey); ok {
				c.out[w].vals = v.([]float64)[:0]
			}
		}
		emit = func(w int, e, f uint32, overlap int32) {
			out := c.open(w, e)
			out.ids = append(out.ids, f)
			out.vals = append(out.vals, float64(overlap))
		}
	}
	err := construct(eng, in, s, o, exact, emit)
	return c, err
}

// open counts one more entry into e's run, which starts where worker w's
// output ends if this is its first, and returns that output.
func (c *runCollector) open(w int, e uint32) *workerRuns {
	r, out := &c.runs[e], &c.out[w]
	if r.n == 0 {
		r.off, r.w = len(out.ids), int32(w)
	}
	r.n++
	return out
}

// release recycles the run buffers once nothing reads the runs any more.
func (c *runCollector) release(eng *parallel.Engine) {
	for w, out := range c.out {
		eng.StashU32(w, out.ids)
		if cap(out.vals) > 0 {
			eng.Stash(w, valsKey, out.vals)
		}
	}
}

// upper returns the neighbours f > e of hyperedge e in emit order, and their
// overlaps when the run was exact.
func (c *runCollector) upper(e int) ([]uint32, []float64) {
	r := c.runs[e]
	out, lo, hi := &c.out[r.w], r.off, r.off+int(r.n)
	if !c.exact {
		return out.ids[lo:hi], nil
	}
	return out.ids[lo:hi], out.vals[lo:hi]
}

// assemble builds the symmetric s-line adjacency from the collected runs
// (val aligned with col after an exact run, nil otherwise). Row e is its
// neighbours below e, [rowptr[e], mid[e]), then those above,
// [mid[e], rowptr[e+1]). Transposing the (unsorted) upper runs fills every
// lower part in ascending order, transposing the lower parts back fills
// every upper part in ascending order (sparse.TransposeRows, twice): each
// row is sorted as laid out. On an error the slices hold a partial layout.
func (c *runCollector) assemble(eng *parallel.Engine) (rowptr []int64, col []uint32, val []float64, err error) {
	n := len(c.runs)
	above := make([]int64, n+1) // above[e]: upper neighbours of the rows below e
	for e, r := range c.runs {
		above[e+1] = above[e] + int64(r.n)
	}
	rowptr, mid := make([]int64, n+1), make([]int64, n)
	err = sparse.TransposeRows(eng, n, n, func(e int) int64 { return above[e] }, c.upper, func(cur [][]int64) ([]uint32, []float64) {
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
		if c.exact {
			val = make([]float64, at)
		}
		return col, val
	})
	if err != nil {
		return nil, nil, nil, err
	}
	lower := func(f int) ([]uint32, []float64) {
		if val == nil {
			return col[rowptr[f]:mid[f]], nil
		}
		return col[rowptr[f]:mid[f]], val[rowptr[f]:mid[f]]
	}
	err = sparse.TransposeRows(eng, n, n, func(f int) int64 { return rowptr[f] - above[f] }, lower, func(cur [][]int64) ([]uint32, []float64) {
		for e, at := range mid {
			for _, cnt := range cur {
				cnt[e], at = at, at+cnt[e]
			}
		}
		return col, val
	})
	return rowptr, col, val, err
}

// ConstructCSR runs the kernel and assembles the symmetric s-line adjacency
// directly into a sparse.CSR over in's ID space — the one route to an s-line
// graph. No pair list ever exists, every phase runs on eng, and the rows
// come out sorted, so the CSR is adopted (fully validated) unsorted.
func ConstructCSR(eng *parallel.Engine, in Input, s int, o Options) (*sparse.CSR, error) {
	return constructCSR(eng, in, s, o, false)
}

// ConstructWeightedCSR is ConstructCSR with Val[k] = |e ∩ f| for the entry
// Col[k] = f of row e (the edge strengths of the paper's Figure 5): the same
// body with the exact flag set, RowPtr and Col identical. Every s-line graph
// at s' ≥ s is its KeepAtLeast(s').
func ConstructWeightedCSR(eng *parallel.Engine, in Input, s int, o Options) (*sparse.CSR, error) {
	return constructCSR(eng, in, s, o, true)
}

func constructCSR(eng *parallel.Engine, in Input, s int, o Options, exact bool) (*sparse.CSR, error) {
	c, err := collect(eng, in, s, o, exact)
	defer c.release(eng)
	if err != nil {
		return nil, err
	}
	rowptr, col, val, err := c.assemble(eng)
	if err != nil {
		return nil, err
	}
	return sparse.AdoptSorted(len(c.runs), len(c.runs), rowptr, col, val)
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
