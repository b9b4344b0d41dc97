package sparse

import (
	"context"
	"errors"
	"math/rand"
	"slices"
	"testing"

	"nwhy/internal/parallel"
)

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

func TestAdoptSortedAccepts(t *testing.T) {
	c, err := AdoptSorted(parallel.SharedEngine(), 3, 4,
		[]int64{0, 2, 2, 3},
		[]uint32{1, 3, 0},
		nil)
	if err != nil {
		t.Fatal(err)
	}
	if c.NumRows() != 3 || c.NumCols() != 4 || c.NumEdges() != 3 {
		t.Fatalf("dims %dx%d nnz %d", c.NumRows(), c.NumCols(), c.NumEdges())
	}
	if !c.HasEntry(0, 3) || c.HasEntry(1, 0) {
		t.Fatal("entries misplaced")
	}
}

func TestAdoptSortedRejects(t *testing.T) {
	cases := []struct {
		name   string
		nrows  int
		rowptr []int64
		col    []uint32
		val    []float64
	}{
		{"rowptr length", 2, []int64{0, 1}, []uint32{0}, nil},
		{"rowptr endpoint", 2, []int64{0, 1, 2}, []uint32{0}, nil},
		{"rowptr decreasing", 2, []int64{0, 2, 1}, []uint32{0, 1}, nil},
		{"unsorted row", 1, []int64{0, 2}, []uint32{3, 1}, nil},
		{"col out of range", 1, []int64{0, 1}, []uint32{9}, nil},
		{"val misaligned", 1, []int64{0, 2}, []uint32{0, 1}, []float64{1}},
	}
	for _, tc := range cases {
		if _, err := AdoptSorted(parallel.SharedEngine(), tc.nrows, 4, tc.rowptr, tc.col, tc.val); err == nil {
			t.Fatalf("%s: AdoptSorted accepted invalid storage", tc.name)
		}
	}
}

// TestAdoptSortedChecksRowsInParallel: at one, two and three workers a
// storage with several bad rows is refused with the error of the lowest one
// — what the serial Validate reports — and a cancelled engine adopts
// nothing, checked or not.
func TestAdoptSortedChecksRowsInParallel(t *testing.T) {
	const n = 5000
	rowptr, col := make([]int64, n+1), make([]uint32, 2*n)
	for r := 0; r < n; r++ {
		rowptr[r+1] = int64(2 * (r + 1))
		col[2*r], col[2*r+1] = uint32(r), uint32(r)+1
	}
	for _, r := range []int{4100, 977, 3050} {
		col[2*r], col[2*r+1] = col[2*r+1], col[2*r] // unsorted
	}
	bad := &CSR{nrows: n, ncols: n + 1, RowPtr: rowptr, Col: col}
	want := bad.Validate()
	if want == nil {
		t.Fatal("the serial Validate accepts the storage")
	}
	for workers := 1; workers <= 3; workers++ {
		eng := parallel.NewEngine(workers)
		if _, err := AdoptSorted(eng, n, n+1, rowptr, col, nil); err == nil || err.Error() != want.Error() {
			t.Fatalf("%d workers: err = %v, want %v", workers, err, want)
		}
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		if c, err := AdoptSorted(eng.WithContext(ctx), n, n+1, rowptr, col, nil); !errors.Is(err, context.Canceled) || c != nil {
			t.Fatalf("%d workers, cancelled: %v, err = %v", workers, c, err)
		}
		eng.Close()
	}
}

func TestAdoptSortedMatchesFromPairs(t *testing.T) {
	a, err := AdoptSorted(parallel.SharedEngine(), 2, 3, []int64{0, 2, 3}, []uint32{0, 2, 1}, []float64{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	b := FromPairs(2, 3, []Edge{{1, 1}, {0, 2}, {0, 0}}, []float64{3, 2, 1})
	if !a.Equal(b) {
		t.Fatal("AdoptSorted differs from FromPairs on the same entries")
	}
}

func TestUpperTriangle(t *testing.T) {
	// Path 0-1-2 plus edge 0-2, stored symmetrically with sorted rows.
	c, err := AdoptSorted(parallel.SharedEngine(), 4, 4, []int64{0, 2, 4, 6, 6}, []uint32{1, 2, 0, 2, 0, 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := []Edge{{0, 1}, {0, 2}, {1, 2}}
	if got := c.UpperTriangle(); len(got) != len(want) || got[0] != want[0] || got[1] != want[1] || got[2] != want[2] {
		t.Fatalf("UpperTriangle = %v, want %v", got, want)
	}
	empty, err := AdoptSorted(parallel.SharedEngine(), 2, 2, []int64{0, 0, 0}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := empty.UpperTriangle(); got != nil {
		t.Fatalf("UpperTriangle of an empty CSR = %v, want nil", got)
	}
}

// TestKeepAtLeast: at one, two and three workers the filtered CSR holds, row
// by row and in order, exactly the columns whose value reaches the threshold,
// carries no values, and leaves its source as it was; a cancelled engine
// gives its error and no CSR.
func TestKeepAtLeast(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	for trial := 0; trial < 40; trial++ {
		c := randomCSR(rng, true)
		before := c.Clone()
		for workers := 1; workers <= 3; workers++ {
			eng := parallel.NewEngine(workers)
			for _, least := range []float64{0, 0.3, 0.7, 2} {
				kept, err := c.KeepAtLeast(eng, least)
				if err != nil {
					t.Fatal(err)
				}
				if kept.NumRows() != c.NumRows() || kept.NumCols() != c.NumCols() || kept.Val != nil {
					t.Fatalf("KeepAtLeast(%v): %dx%d, values %v", least, kept.NumRows(), kept.NumCols(), kept.Val)
				}
				for r := 0; r < c.NumRows(); r++ {
					var want []uint32
					for k, col := range c.Row(r) {
						if c.RowVal(r)[k] >= least {
							want = append(want, col)
						}
					}
					if !slices.Equal(kept.Row(r), want) {
						t.Fatalf("KeepAtLeast(%v) at %d workers: row %d = %v, want %v", least, workers, r, kept.Row(r), want)
					}
				}
			}
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			if kept, err := c.KeepAtLeast(eng.WithContext(ctx), 0.5); !errors.Is(err, context.Canceled) || kept != nil {
				t.Fatalf("KeepAtLeast on a cancelled engine: %v, err = %v", kept, err)
			}
			eng.Close()
		}
		if !csrIdentical(c, before) {
			t.Fatal("KeepAtLeast wrote to its source")
		}
	}
}
