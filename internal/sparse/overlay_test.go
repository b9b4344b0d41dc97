package sparse

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"nwhy/internal/parallel"
)

func overlayBase(t *testing.T) *CSR {
	t.Helper()
	// 4 rows over 6 cols.
	c := FromPairs(4, 6, []Edge{
		{0, 0}, {0, 1}, {0, 2},
		{1, 2}, {1, 3},
		{2, 4},
		{3, 3}, {3, 5},
	}, nil)
	if err := c.Validate(); err != nil {
		t.Fatalf("base: %v", err)
	}
	return c
}

func TestOverlayRejectsWeighted(t *testing.T) {
	c := FromPairs(2, 2, []Edge{{0, 0}, {1, 1}}, []float64{1, 2})
	if _, err := NewOverlay(c); err == nil {
		t.Fatal("want error for weighted base")
	}
}

func TestOverlayReadThrough(t *testing.T) {
	ov, err := NewOverlay(overlayBase(t))
	if err != nil {
		t.Fatal(err)
	}
	if got := ov.Row(1); len(got) != 2 || got[0] != 2 || got[1] != 3 {
		t.Fatalf("Row(1) = %v", got)
	}
	if ov.NumRows() != 4 || ov.NumCols() != 6 {
		t.Fatalf("dims = %dx%d", ov.NumRows(), ov.NumCols())
	}
	if ov.Degree(0) != 3 || ov.Degree(2) != 1 {
		t.Fatalf("degrees = %d,%d", ov.Degree(0), ov.Degree(2))
	}
}

func TestOverlayInsertSortsDedupsGrows(t *testing.T) {
	ov, err := NewOverlay(overlayBase(t))
	if err != nil {
		t.Fatal(err)
	}
	id := ov.InsertRow([]uint32{7, 2, 7, 0})
	if id != 4 {
		t.Fatalf("id = %d, want 4", id)
	}
	if got := ov.Row(id); len(got) != 3 || got[0] != 0 || got[1] != 2 || got[2] != 7 {
		t.Fatalf("Row(%d) = %v", id, got)
	}
	if ov.NumCols() != 8 {
		t.Fatalf("NumCols = %d, want 8 after inserting col 7", ov.NumCols())
	}
	if ov.NumRows() != 5 || ov.Inserts() != 1 {
		t.Fatalf("rows=%d inserts=%d", ov.NumRows(), ov.Inserts())
	}
}

func TestOverlayDeleteAndRecycle(t *testing.T) {
	ov, err := NewOverlay(overlayBase(t))
	if err != nil {
		t.Fatal(err)
	}
	if err := ov.DeleteRow(1); err != nil {
		t.Fatal(err)
	}
	if !ov.Dead(1) || ov.Row(1) != nil || ov.Degree(1) != 0 {
		t.Fatal("row 1 should be dead and empty")
	}
	if err := ov.DeleteRow(1); err == nil {
		t.Fatal("double delete should fail")
	}
	if err := ov.DeleteRow(99); err == nil {
		t.Fatal("out-of-range delete should fail")
	}
	// Recycled insert takes ID 1, not a fresh ID.
	id := ov.InsertRow([]uint32{5})
	if id != 1 {
		t.Fatalf("recycled id = %d, want 1", id)
	}
	if ov.Dead(1) || ov.NumRows() != 4 {
		t.Fatalf("after recycle: dead=%v rows=%d", ov.Dead(1), ov.NumRows())
	}
	if got := ov.Row(1); len(got) != 1 || got[0] != 5 {
		t.Fatalf("Row(1) = %v", got)
	}
	if ov.Deletes() != 1 {
		t.Fatalf("Deletes = %d", ov.Deletes())
	}
}

func TestOverlayDeleteDeltaRow(t *testing.T) {
	ov, err := NewOverlay(overlayBase(t))
	if err != nil {
		t.Fatal(err)
	}
	id := ov.InsertRow([]uint32{1, 2})
	if err := ov.DeleteRow(id); err != nil {
		t.Fatal(err)
	}
	if ov.Row(id) != nil {
		t.Fatal("deleted delta row should read empty")
	}
}

func TestOverlayCompactMatchesManual(t *testing.T) {
	eng := parallel.NewEngine(4)
	ov, err := NewOverlay(overlayBase(t))
	if err != nil {
		t.Fatal(err)
	}
	if err := ov.DeleteRow(2); err != nil {
		t.Fatal(err)
	}
	ov.InsertRow([]uint32{0, 5}) // recycles ID 2
	ov.InsertRow([]uint32{4})    // fresh ID 4
	c, err := ov.Compact(eng)
	if err != nil {
		t.Fatal(err)
	}
	want := FromPairs(5, 6, []Edge{
		{0, 0}, {0, 1}, {0, 2},
		{1, 2}, {1, 3},
		{2, 0}, {2, 5},
		{3, 3}, {3, 5},
		{4, 4},
	}, nil)
	if !c.Equal(want) {
		t.Fatalf("compact mismatch:\n got %v %v\nwant %v %v", c.RowPtr, c.Col, want.RowPtr, want.Col)
	}
}

func TestOverlayCompactDeadRowsEmpty(t *testing.T) {
	eng := parallel.NewEngine(2)
	ov, err := NewOverlay(overlayBase(t))
	if err != nil {
		t.Fatal(err)
	}
	if err := ov.DeleteRow(0); err != nil {
		t.Fatal(err)
	}
	c, err := ov.Compact(eng)
	if err != nil {
		t.Fatal(err)
	}
	if c.NumRows() != 4 || len(c.Row(0)) != 0 {
		t.Fatalf("dead row should compact to empty: rows=%d row0=%v", c.NumRows(), c.Row(0))
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestOverlayCompactStaysOnEngine pins the engine over a whole Compact, the
// prefix sum over its row counts included: above 16 Ki rows that step used
// to run on the process-wide default pool whatever engine the caller held.
func TestOverlayCompactStaysOnEngine(t *testing.T) {
	const nrows = 20000
	pairs := make([]Edge, 0, 2*nrows)
	for r := uint32(0); r < nrows; r++ {
		pairs = append(pairs, Edge{r, r % 97}, Edge{r, 97 + r%3})
	}
	ov, err := NewOverlay(FromPairs(nrows, 100, pairs, nil))
	if err != nil {
		t.Fatal(err)
	}
	if err := ov.DeleteRow(5); err != nil {
		t.Fatal(err)
	}
	ov.InsertRow([]uint32{9, 3})
	ov.InsertRow([]uint32{1})
	eng := parallel.NewEngine(1)
	defer eng.Close()
	def := parallel.Default()
	before := def.Submitted()
	c, err := ov.Compact(eng)
	if err != nil {
		t.Fatal(err)
	}
	if n := def.Submitted() - before; n != 0 {
		t.Fatalf("the default pool received %d tasks during a Compact bound to a 1-worker engine", n)
	}
	if c.NumRows() != ov.NumRows() {
		t.Fatalf("%d rows, overlay has %d", c.NumRows(), ov.NumRows())
	}
	for i := 0; i < c.NumRows(); i++ {
		if !slices.Equal(c.Row(i), ov.Row(uint32(i))) {
			t.Fatalf("row %d: %v, overlay has %v", i, c.Row(i), ov.Row(uint32(i)))
		}
	}
}

func TestOverlayCompactRandomDifferential(t *testing.T) {
	eng := parallel.NewEngine(4)
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		nrows, ncols := 1+rng.Intn(40), 1+rng.Intn(30)
		var pairs []Edge
		for i := 0; i < nrows; i++ {
			d := rng.Intn(5)
			for j := 0; j < d; j++ {
				pairs = append(pairs, Edge{uint32(i), uint32(rng.Intn(ncols))})
			}
		}
		bel := &BiEdgeList{N0: nrows, N1: ncols, Edges: pairs}
		bel.Dedup()
		base := FromPairs(nrows, ncols, bel.Edges, nil)
		ov, err := NewOverlay(base)
		if err != nil {
			t.Fatal(err)
		}
		// Shadow model: live rows by ID.
		shadow := map[uint32][]uint32{}
		for i := 0; i < nrows; i++ {
			shadow[uint32(i)] = append([]uint32(nil), base.Row(i)...)
		}
		for op := 0; op < 60; op++ {
			if rng.Intn(3) == 0 && len(shadow) > 0 {
				// Delete a random live row.
				var victim uint32
				n := rng.Intn(len(shadow))
				for id := range shadow {
					if n == 0 {
						victim = id
						break
					}
					n--
				}
				if err := ov.DeleteRow(victim); err != nil {
					t.Fatal(err)
				}
				delete(shadow, victim)
			} else {
				d := 1 + rng.Intn(4)
				cols := make([]uint32, d)
				for j := range cols {
					cols[j] = uint32(rng.Intn(ncols))
				}
				id := ov.InsertRow(cols)
				sorted := append([]uint32(nil), cols...)
				for a := 1; a < len(sorted); a++ {
					for b := a; b > 0 && sorted[b] < sorted[b-1]; b-- {
						sorted[b], sorted[b-1] = sorted[b-1], sorted[b]
					}
				}
				dedup := sorted[:0]
				for j, v := range sorted {
					if j == 0 || v != sorted[j-1] {
						dedup = append(dedup, v)
					}
				}
				shadow[id] = append([]uint32(nil), dedup...)
			}
		}
		c, err := ov.Compact(eng)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Validate(); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if c.NumRows() != ov.NumRows() {
			t.Fatalf("trial %d: rows %d != %d", trial, c.NumRows(), ov.NumRows())
		}
		for i := 0; i < c.NumRows(); i++ {
			want := shadow[uint32(i)]
			got := c.Row(i)
			if len(got) != len(want) {
				t.Fatalf("trial %d row %d: got %v want %v", trial, i, got, want)
			}
			for j := range got {
				if got[j] != want[j] {
					t.Fatalf("trial %d row %d: got %v want %v", trial, i, got, want)
				}
			}
		}
	}
}

func TestTransposeOnMatchesTranspose(t *testing.T) {
	eng := parallel.NewEngine(4)
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 10; trial++ {
		nrows, ncols := 1+rng.Intn(50), 1+rng.Intn(50)
		var pairs []Edge
		for k := 0; k < rng.Intn(200); k++ {
			pairs = append(pairs, Edge{uint32(rng.Intn(nrows)), uint32(rng.Intn(ncols))})
		}
		bel := &BiEdgeList{N0: nrows, N1: ncols, Edges: pairs}
		bel.Dedup()
		c := FromPairs(nrows, ncols, bel.Edges, nil)
		got, err := TransposeOn(eng, c)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(c.Transpose()) {
			t.Fatalf("trial %d: TransposeOn != Transpose", trial)
		}
	}
}

func TestTransposeOnCarriesWeights(t *testing.T) {
	eng := parallel.NewEngine(2)
	c := FromPairs(2, 3, []Edge{{0, 1}, {1, 0}, {1, 2}}, []float64{1, 2, 3})
	got, err := TransposeOn(eng, c)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(c.Transpose()) {
		t.Fatal("TransposeOn != Transpose on a weighted CSR")
	}
	if want := []float64{2, 1, 3}; !reflect.DeepEqual(got.Val, want) {
		t.Fatalf("transposed weights %v, want %v", got.Val, want)
	}
}
