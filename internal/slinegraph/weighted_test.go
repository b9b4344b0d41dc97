package slinegraph

import (
	"reflect"
	"slices"
	"testing"
	"testing/quick"

	"nwhy/internal/core"
	"nwhy/internal/sparse"
)

// strengthOf reads |e ∩ f| off an overlap-weighted s-line CSR, 0 when the
// pair is not s-incident.
func strengthOf(csr *sparse.CSR, e, f uint32) int {
	if k, ok := slices.BinarySearch(csr.Row(int(e)), f); ok {
		return int(csr.RowVal(int(e))[k])
	}
	return 0
}

func TestHashmapWeightedStrengths(t *testing.T) {
	h := overlapHypergraph() // |e0∩e1|=3, |e0∩e2|=2, |e1∩e2|=3
	csr := tWeighted(FromHypergraph(h), 1, HashmapCounter)
	want := map[[2]uint32]int{{0, 1}: 3, {0, 2}: 2, {1, 2}: 3}
	if csr.NumEdges() != 2*len(want) {
		t.Fatalf("got %v", csr.UpperTriangle())
	}
	for p, overlap := range want {
		if strengthOf(csr, p[0], p[1]) != overlap || strengthOf(csr, p[1], p[0]) != overlap {
			t.Fatalf("pair %v overlap %d / %d, want %d", p, strengthOf(csr, p[0], p[1]), strengthOf(csr, p[1], p[0]), overlap)
		}
	}
}

func TestWeightedMatchesUnweightedPairs(t *testing.T) {
	f := func(seed int64) bool {
		h := randomHypergraph(30, 20, 5, seed)
		for s := 1; s <= 3; s++ {
			if !reflect.DeepEqual(tHashmap(h, s, Options{}), tWeighted(FromHypergraph(h), s, HashmapCounter).UpperTriangle()) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestWeightedOverlapsAreExact(t *testing.T) {
	f := func(seed int64) bool {
		h := randomHypergraph(25, 15, 5, seed)
		csr := tWeighted(FromHypergraph(h), 1, HashmapCounter)
		for e := 0; e < csr.NumRows(); e++ {
			for k, f := range csr.Row(e) {
				if float64(exactOverlap(h.EdgeIncidence(e), h.EdgeIncidence(int(f)))) != csr.RowVal(e)[k] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestWeightedOverlapAtLeastS(t *testing.T) {
	h := randomHypergraph(40, 20, 6, 11)
	for s := 2; s <= 4; s++ {
		for _, overlap := range tWeighted(FromHypergraph(h), s, HashmapCounter).Val {
			if overlap < float64(s) {
				t.Fatalf("s=%d pair with overlap %v", s, overlap)
			}
		}
	}
}

// exactOverlap counts |a ∩ b| of sorted slices without the early-exit
// pruning of countCommonGE.
func exactOverlap(a, b []uint32) int {
	i, j, c := 0, 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			c++
			i++
			j++
		}
	}
	return c
}

func TestQueueHashmapWeightedOnAdjoin(t *testing.T) {
	h := randomHypergraph(30, 20, 5, 5)
	want := tWeighted(FromHypergraph(h), 2, HashmapCounter)
	got := tWeighted(FromAdjoin(core.Adjoin(teng, h)), 2, HashmapCounter)
	ne := h.NumEdges()
	if !slices.Equal(got.RowPtr[:ne+1], want.RowPtr) || !slices.Equal(got.Col, want.Col) || !slices.Equal(got.Val, want.Val) {
		t.Fatal("weighted queue construction on adjoin differs")
	}
}
