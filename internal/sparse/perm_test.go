package sparse

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func randomPerm(rng *rand.Rand, n int) []uint32 {
	p := make([]uint32, n)
	for i := range p {
		p[i] = uint32(i)
	}
	rng.Shuffle(n, func(a, b int) { p[a], p[b] = p[b], p[a] })
	return p
}

func randomCSR(rng *rand.Rand, weighted bool) *CSR {
	nrows := rng.Intn(40) + 1
	ncols := rng.Intn(40) + 1
	nnz := rng.Intn(200)
	pairs := make([]Edge, nnz)
	var weights []float64
	if weighted {
		weights = make([]float64, nnz)
	}
	for i := range pairs {
		pairs[i] = Edge{uint32(rng.Intn(nrows)), uint32(rng.Intn(ncols))}
		if weighted {
			weights[i] = rng.Float64()
		}
	}
	return FromPairs(nrows, ncols, pairs, weights)
}

func csrIdentical(a, b *CSR) bool {
	if !a.Equal(b) {
		return false
	}
	if (a.Val == nil) != (b.Val == nil) {
		return false
	}
	for i := range a.Val {
		if a.Val[i] != b.Val[i] {
			return false
		}
	}
	return true
}

// TestApplyPermRoundTrip: for any valid permutation pair, applying
// (perm, colInv) then (InvertPerm(perm), InvertPerm(colInv)) reproduces the
// original CSR exactly, including weights.
func TestApplyPermRoundTrip(t *testing.T) {
	prop := func(seed int64, weighted bool) bool {
		rng := rand.New(rand.NewSource(seed))
		c := randomCSR(rng, weighted)
		rowPerm := randomPerm(rng, c.NumRows())
		colPerm := randomPerm(rng, c.NumCols())
		colInv := InvertPerm(colPerm)
		fwd := c.ApplyPerm(rowPerm, colInv)
		if err := fwd.Validate(); err != nil {
			t.Logf("forward result invalid: %v", err)
			return false
		}
		back := fwd.ApplyPerm(InvertPerm(rowPerm), InvertPerm(colInv))
		return csrIdentical(c, back)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestApplyPermRowOnlyRoundTrip covers the colInv == nil fast path, which
// skips the re-sort.
func TestApplyPermRowOnlyRoundTrip(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := randomCSR(rng, seed%2 == 0)
		rowPerm := randomPerm(rng, c.NumRows())
		back := c.ApplyPerm(rowPerm, nil).ApplyPerm(InvertPerm(rowPerm), nil)
		return csrIdentical(c, back)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestApplyPermMatchesRowSemantics pins the meaning of the arguments: row
// newID of the result is row rowPerm[newID] of the input with every column
// mapped through colInv (as a set; rows re-sort).
func TestApplyPermMatchesRowSemantics(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	c := randomCSR(rng, false)
	rowPerm := randomPerm(rng, c.NumRows())
	colPerm := randomPerm(rng, c.NumCols())
	colInv := InvertPerm(colPerm)
	out := c.ApplyPerm(rowPerm, colInv)
	for newID := 0; newID < out.NumRows(); newID++ {
		want := append([]uint32(nil), c.Row(int(rowPerm[newID]))...)
		for i, v := range want {
			want[i] = colInv[v]
		}
		sort.Slice(want, func(a, b int) bool { return want[a] < want[b] })
		got := out.Row(newID)
		if len(got) != len(want) {
			t.Fatalf("row %d: %d entries, want %d", newID, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("row %d entry %d: %d, want %d", newID, i, got[i], want[i])
			}
		}
	}
}
