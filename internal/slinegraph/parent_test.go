package slinegraph

import (
	"fmt"
	"slices"
	"testing"

	"nwhy/internal/core"
	"nwhy/internal/gen"
	"nwhy/internal/parallel"
	"nwhy/internal/sparse"
)

// This file keeps the routine ConstructCSR ran before the compacted view,
// the yield at s and the sorted runs (commit d35e31f), as the reference that
// pins RowPtr, Col and Val byte for byte: an interface tally walked over the
// Input with a per-visit eligibility test, a second pass over the touched
// list to emit, unsorted runs, and an assembly of two transposes. It is
// serial where the original ran a schedule; the layout it produces never
// depended on one.

// parentCounter is the parent's countmap.Counter, as far as its kernel used
// it.
type parentCounter interface {
	Inc(key uint32, delta int32)
	Clear()
	Range(fn func(key uint32, count int32))
}

// parentDense is the parent's countmap.Dense: stamps, counts, and the list
// of touched keys its Range pass walked.
type parentDense struct {
	vals    []int32
	stamps  []uint32
	epoch   uint32
	touched []uint32
}

func (d *parentDense) Inc(key uint32, delta int32) {
	if d.stamps[key] != d.epoch {
		d.stamps[key] = d.epoch
		d.vals[key] = delta
		d.touched = append(d.touched, key)
		return
	}
	d.vals[key] += delta
}

func (d *parentDense) Clear() { d.epoch++; d.touched = d.touched[:0] }

func (d *parentDense) Range(fn func(key uint32, count int32)) {
	for _, k := range d.touched {
		fn(k, d.vals[k])
	}
}

// parentCollector is the parent's runCollector for one worker: runs in emit
// order, opened entry by entry.
type parentCollector struct {
	off, n []int
	ids    []uint32
	vals   []float64
}

func (c *parentCollector) upper(e int) ([]uint32, []float64) {
	lo, hi := c.off[e], c.off[e]+c.n[e]
	if c.vals == nil {
		return c.ids[lo:hi], nil
	}
	return c.ids[lo:hi], c.vals[lo:hi]
}

// parentConstructCSR is the parent's constructCSR under NoPrune: Algorithm 1
// with the degree test on every visit, then the two-transpose assembly.
func parentConstructCSR(eng *parallel.Engine, in Input, s int, exact bool) (*sparse.CSR, error) {
	n := in.IDSpace()
	c := &parentCollector{off: make([]int, n), n: make([]int, n)}
	if exact {
		c.vals = []float64{}
	}
	var cnt parentCounter = &parentDense{vals: make([]int32, n), stamps: make([]uint32, n)}
	ids := in.EdgeIDs()
	for _, e := range ids {
		if in.EdgeDegree(e) < s {
			continue
		}
		cnt.Clear()
		for _, v := range in.Incidence(e) {
			for _, f := range in.EdgesOf(v) {
				if f > e && in.EdgeDegree(f) >= s {
					cnt.Inc(f, 1)
				}
			}
		}
		cnt.Range(func(f uint32, overlap int32) {
			if int(overlap) < s {
				return
			}
			if c.n[e] == 0 {
				c.off[e] = len(c.ids)
			}
			c.n[e]++
			c.ids = append(c.ids, f)
			if exact {
				c.vals = append(c.vals, float64(overlap))
			}
		})
	}
	above := make([]int64, n+1)
	for e := range c.n {
		above[e+1] = above[e] + int64(c.n[e])
	}
	rowptr, mid := make([]int64, n+1), make([]int64, n)
	var col []uint32
	var val []float64
	err := sparse.TransposeRows(eng, n, n, func(e int) int64 { return above[e] }, c.upper, func(cur [][]int64) ([]uint32, []float64) {
		at := int64(0)
		for f := range mid {
			rowptr[f] = at
			for _, cnt := range cur {
				cnt[f], at = at, at+cnt[f]
			}
			mid[f] = at
			at += int64(c.n[f])
		}
		rowptr[n] = at
		col = make([]uint32, at)
		if exact {
			val = make([]float64, at)
		}
		return col, val
	})
	if err != nil {
		return nil, err
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
	if err != nil {
		return nil, err
	}
	return sparse.AdoptSorted(eng, n, n, rowptr, col, val)
}

// sameBytes reports how got differs from the parent routine's CSR, nil when
// RowPtr, Col and Val are equal element for element.
func sameBytes(got, want *sparse.CSR) error {
	switch {
	case !slices.Equal(got.RowPtr, want.RowPtr):
		return fmt.Errorf("RowPtr differs from the parent routine's")
	case !slices.Equal(got.Col, want.Col):
		return fmt.Errorf("Col differs from the parent routine's")
	case !slices.Equal(got.Val, want.Val) || (got.Val == nil) != (want.Val == nil):
		return fmt.Errorf("Val differs from the parent routine's")
	}
	return nil
}

var (
	allCounters = []Counter{AutoCounter, HashmapCounter, DenseCounter, IntersectionCounter}
	allPrunes   = []Prune{AutoPrune, NoPrune, DegreePrune, ConnectivityPrune, ToplexPrune}
)

// checkAgainstParent runs ConstructCSR and ConstructWeightedCSR on eng for
// every Counter × Prune and demands the parent routine's bytes.
func checkAgainstParent(t *testing.T, eng *parallel.Engine, in Input, s int, what string) {
	t.Helper()
	for _, exact := range []bool{false, true} {
		want, err := parentConstructCSR(teng, in, s, exact)
		if err != nil {
			t.Fatal(err)
		}
		build := ConstructCSR
		if exact {
			build = ConstructWeightedCSR
		}
		for _, ctr := range allCounters {
			for _, p := range allPrunes {
				got, err := build(eng, in, s, Options{Counter: ctr, Prune: p})
				if err == nil {
					err = sameBytes(got, want)
				}
				if err != nil {
					t.Fatalf("%s s=%d exact=%v workers=%d counter=%v prune=%v: %v", what, s, exact, eng.NumWorkers(), ctr, p, err)
				}
			}
		}
	}
}

// TestSameBytesAsParentOnPresets is the byte-identity pin of the kernel's
// second round: every internal/gen preset at test scale, s from 0 to 4,
// every Counter × Prune, exact on and off, at 1, 2 and 3 workers;
// and the s-component labels of every counter equal SComponentsDirect's
// under NoPrune.
func TestSameBytesAsParentOnPresets(t *testing.T) {
	engines := []*parallel.Engine{parallel.NewEngine(1), parallel.NewEngine(2), parallel.NewEngine(3)}
	defer func() {
		for _, eng := range engines {
			eng.Close()
		}
	}()
	for _, p := range gen.Presets() {
		h := p.Build(0.004)
		in := FromHypergraph(h)
		for s := 0; s <= 4; s++ {
			for _, eng := range engines {
				checkAgainstParent(t, eng, in, s, p.Name)
			}
			want, err := SComponentsDirect(teng, in, s, Options{Prune: NoPrune})
			if err != nil {
				t.Fatal(err)
			}
			want = slices.Clone(want)
			tops, cover := core.ToplexCover(teng, h)
			for _, ctr := range allCounters {
				got, err := SComponentsDirect(engines[1], in, s, Options{Counter: ctr})
				if err != nil || !slices.Equal(got, want) {
					t.Fatalf("%s s=%d counter=%v: pruned labels differ from SComponentsDirect under NoPrune (err = %v)", p.Name, s, ctr, err)
				}
				got, err = SComponentsToplex(engines[1], in, s, tops, cover, Options{Counter: ctr})
				if err != nil || !slices.Equal(got, want) {
					t.Fatalf("%s s=%d counter=%v: toplex labels differ from SComponentsDirect under NoPrune (err = %v)", p.Name, s, ctr, err)
				}
			}
		}
	}
}
