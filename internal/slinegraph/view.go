package slinegraph

import (
	"slices"

	"nwhy/internal/parallel"
	"nwhy/internal/sparse"
)

// view is one run's compacted incidence, the only thing the count loop
// reads: the eligible hyperedges (degree ≥ s, members of the Subset under
// ToplexPrune; all of them under NoPrune) and the hypernodes at least two of
// them share. The companion paper's cuts (Liu et al., arXiv:2010.11448) are
// applied to the input here, once, in O(incidences), instead of per visit in
// the O(Σ deg²) loop: an ineligible hyperedge is in no row, a hypernode
// without a partner is in none either. Both sides come out of a counting
// transpose, so every row is ascending whatever order the Input lists its
// own in, and a walk starts each hypernode row just past e.
type view struct {
	eptr  []int64  // by hyperedge ID, IDSpace()+1 offsets into enode
	enode []uint32 // hyperedge → the hypernodes it shares with a partner
	nptr  []int64  // by hypernode handle, NodeSpace()+1 offsets into nedge
	nedge []uint32 // hypernode → its eligible hyperedges, two or more
}

func (v *view) nodes(e uint32) []uint32 { return v.enode[v.eptr[e]:v.eptr[e+1]] }
func (v *view) edges(u uint32) []uint32 { return v.nedge[v.nptr[u]:v.nptr[u+1]] }

// above is the part of hypernode u's row past e, which the row holds.
func (v *view) above(u, e uint32) []uint32 {
	row := v.edges(u)
	i, _ := slices.BinarySearch(row, e)
	return row[i+1:]
}

// viewKey is the arena key a view's four buffers are recycled under.
const viewKey = "slinegraph.view"

// sized returns buf with length n, reallocated only when it is too small.
func sized[T any](buf []T, n int64) []T {
	if int64(cap(buf)) < n {
		return make([]T, n)
	}
	return buf[:n]
}

// seatRows lays the rows a counting transpose has counted out back to back,
// their offsets into ptr, and leaves in cur each block's first slot. Rows
// with fewer than least entries are left empty: their entries are seated
// past the kept ones, from total down, where nothing reads them.
func seatRows(ptr []int64, cur [][]int64, least, total int64) {
	at := int64(0)
	for r := range ptr[:len(ptr)-1] {
		ptr[r] = at
		deg := int64(0)
		for _, cnt := range cur {
			deg += cnt[r]
		}
		for _, cnt := range cur {
			if deg < least {
				total -= cnt[r]
				cnt[r] = total
			} else {
				cnt[r], at = at, at+cnt[r]
			}
		}
	}
	ptr[len(ptr)-1] = at
}

// buildView builds the view of the hyperedges of ids that pass p's cuts at
// threshold s, and returns beside it the work list: the ones of them left
// with s shared hypernodes or more, in ids' order. The view's buffers come
// from eng's arenas; stashView hands them back.
func buildView(eng *parallel.Engine, in Input, s int, p Prune, ids []uint32) (*view, []uint32, error) {
	n, m := in.IDSpace(), in.NodeSpace()
	v := grabView(eng)
	v.eptr, v.nptr = sized(v.eptr, int64(n)+1), sized(v.nptr, int64(m)+1)
	clear(v.eptr)
	for _, e := range ids {
		if d := in.EdgeDegree(e); p == NoPrune || d >= s {
			v.eptr[e+1] = int64(d)
		}
	}
	for e := 0; e < n; e++ {
		v.eptr[e+1] += v.eptr[e]
	}
	total := v.eptr[n]
	err := sparse.TransposeRows(eng, n, m, func(e int) int64 { return v.eptr[e] },
		func(e int) ([]uint32, []float64) {
			if v.eptr[e] == v.eptr[e+1] {
				return nil, nil
			}
			return in.Incidence(uint32(e)), nil
		},
		func(cur [][]int64) ([]uint32, []float64) {
			seatRows(v.nptr, cur, 2, total)
			v.nedge = sized(v.nedge, total)
			return v.nedge, nil
		})
	if err != nil {
		return v, nil, err
	}
	err = sparse.TransposeRows(eng, m, n, func(u int) int64 { return v.nptr[u] },
		func(u int) ([]uint32, []float64) { return v.edges(uint32(u)), nil },
		func(cur [][]int64) ([]uint32, []float64) {
			seatRows(v.eptr, cur, 0, v.nptr[m])
			v.enode = sized(v.enode, v.nptr[m])
			return v.enode, nil
		})
	if err != nil {
		return v, nil, err
	}
	if p == NoPrune {
		return v, ids, nil // the baseline walks every hyperedge
	}
	work := ids[:0]
	for _, e := range ids {
		if len(v.nodes(e)) >= s {
			work = append(work, e)
		}
	}
	return v, work, nil
}

// grabView pops a recycled view from eng's arenas, or returns an empty one.
func grabView(eng *parallel.Engine) *view {
	if v, ok := eng.Grab(0, viewKey); ok {
		return v.(*view)
	}
	return &view{}
}

// stashView recycles v's buffers once no walk reads them.
func stashView(eng *parallel.Engine, v *view) { eng.Stash(0, viewKey, v) }
