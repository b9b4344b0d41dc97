package slinegraph

import (
	"math/bits"
	"slices"

	"nwhy/internal/parallel"
	"nwhy/internal/sparse"
)

// edgeRun locates the upper neighbours of one hyperedge e — the f > e the
// kernel emitted for it — in the buffer of the worker that walked e.
type edgeRun struct {
	off int   // start of the run in that worker's buffer
	n   int32 // upper degree of e
	w   int32 // the worker
}

// runCollector is the kernel's one output stage: one sorted run of
// neighbour IDs per hyperedge, not a pair list. The queue hands a
// hyperedge to exactly one worker, once, and a walk appends all of its
// neighbours before the next one starts: a run is contiguous, runs[e] has a
// single writer, and it is written once, from the length the walk added.
type runCollector struct {
	runs    []edgeRun // by hyperedge ID
	workers []*worker // by worker: the states whose buffers hold the runs
	exact   bool      // whether their vals are filled
}

// collect runs the kernel into a fresh collector. With exact set every
// neighbour's true overlap is kept beside it; without it no value is stored.
func collect(eng *parallel.Engine, in Input, s int, o Options, exact bool) (*runCollector, error) {
	c := &runCollector{runs: make([]edgeRun, in.IDSpace()), workers: make([]*worker, eng.NumWorkers()), exact: exact}
	return c, construct(eng, in, s, o, c)
}

// record closes e's run — what its walk appended to worker w's buffer from
// start on: sorted, so that it is the upper part of row e as it stands, and
// after an exact run with the overlaps read back beside it in that order.
func (c *runCollector) record(k *kernel, st *worker, w int, e uint32, start int) {
	run := st.ids[start:]
	st.bits = sortDistinct(run, st.bits)
	if c.exact {
		for _, f := range run {
			st.vals = append(st.vals, float64(k.count(st, f)))
		}
	}
	c.runs[e] = edgeRun{off: start, n: int32(len(run)), w: int32(w)}
}

// sortDistinctSpread is the widest key range, in 64-key bitmap words per
// key, sortDistinct still bucket-sorts; a sparser run is comparison-sorted.
const sortDistinctSpread = 4

// sortDistinct sorts run, whose keys are distinct, in place. A run dense in
// its own range [min, max] is marked in a bitmap over that range and read
// back in order — no comparisons; the rule is read off the run alone.
// scratch is the bitmap's storage, all zero on entry and on return, grown
// to at most sortDistinctSpread·len(run) words; the (possibly reallocated)
// scratch is returned.
func sortDistinct(run []uint32, scratch []uint64) []uint64 {
	if len(run) < 2 {
		return scratch
	}
	lo, hi := run[0], run[0]
	for _, x := range run {
		lo, hi = min(lo, x), max(hi, x)
	}
	words := int64(hi-lo)/64 + 1
	if words > sortDistinctSpread*int64(len(run)) {
		slices.Sort(run)
		return scratch
	}
	if int64(len(scratch)) < words {
		scratch = make([]uint64, words)
	}
	set := scratch[:words]
	for _, x := range run {
		set[(x-lo)>>6] |= 1 << ((x - lo) & 63)
	}
	k := 0
	for i, word := range set {
		for ; word != 0; word &= word - 1 {
			run[k] = lo + uint32(i<<6+bits.TrailingZeros64(word))
			k++
		}
		set[i] = 0
	}
	return scratch
}

// upper returns the neighbours f > e of hyperedge e, ascending, and their
// overlaps when the run was exact.
func (c *runCollector) upper(e int) ([]uint32, []float64) {
	r := c.runs[e]
	if r.n == 0 {
		return nil, nil
	}
	st, lo, hi := c.workers[r.w], r.off, r.off+int(r.n)
	if !c.exact {
		return st.ids[lo:hi], nil
	}
	return st.ids[lo:hi], st.vals[lo:hi]
}

// assemble builds the symmetric s-line adjacency from the collected runs
// (val aligned with col after an exact run, nil otherwise). Row e is its
// neighbours below e, then those above. One transpose of the upper runs
// (sparse.TransposeRows) fills every lower part in ascending order; the
// upper part of row e is its run, sorted when it was recorded, copied into
// place: each row is sorted as laid out. On an error the slices hold a
// partial layout.
func (c *runCollector) assemble(eng *parallel.Engine) (rowptr []int64, col []uint32, val []float64, err error) {
	n := len(c.runs)
	above := make([]int64, n+1) // above[e]: upper neighbours of the rows below e
	for e, r := range c.runs {
		above[e+1] = above[e] + int64(r.n)
	}
	rowptr = make([]int64, n+1)
	err = sparse.TransposeRows(eng, n, n, func(e int) int64 { return above[e] }, c.upper, func(cur [][]int64) ([]uint32, []float64) {
		at := int64(0)
		for f, r := range c.runs {
			rowptr[f] = at
			for _, cnt := range cur {
				cnt[f], at = at, at+cnt[f]
			}
			at += int64(r.n)
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
	eng.ForN(n, func(_, lo, hi int) {
		for e := lo; e < hi; e++ {
			ids, vals := c.upper(e)
			at := rowptr[e+1] - int64(len(ids))
			copy(col[at:], ids)
			if vals != nil {
				copy(val[at:], vals)
			}
		}
	})
	return rowptr, col, val, eng.Err()
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
	defer stashWorkers(eng, c.workers)
	if err != nil {
		return nil, err
	}
	rowptr, col, val, err := c.assemble(eng)
	if err != nil {
		return nil, err
	}
	return sparse.AdoptSorted(eng, len(c.runs), len(c.runs), rowptr, col, val)
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
