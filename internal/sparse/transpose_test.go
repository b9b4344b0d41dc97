package sparse_test

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"nwhy/internal/gen"
	"nwhy/internal/parallel"
	"nwhy/internal/sparse"
)

// storage is a CSR's three arrays, the unit the differential tests compare.
type storage struct {
	nrows, ncols int
	rowptr       []int64
	col          []uint32
	val          []float64
}

func storageOf(c *sparse.CSR) storage {
	return storage{c.NumRows(), c.NumCols(), c.RowPtr, c.Col, c.Val}
}

func (s storage) diff(o storage) string {
	switch {
	case s.nrows != o.nrows || s.ncols != o.ncols:
		return fmt.Sprintf("dims %dx%d, oracle %dx%d", s.nrows, s.ncols, o.nrows, o.ncols)
	case !slices.Equal(s.rowptr, o.rowptr):
		return "RowPtr differs from the oracle"
	case !slices.Equal(s.col, o.col):
		return "Col differs from the oracle"
	case (s.val == nil) != (o.val == nil) || !slices.Equal(s.val, o.val):
		return "Val differs from the oracle"
	}
	return ""
}

// oracle is the build the counting transposes replaced, at its most naive:
// stable comparison sort of the pairs by (U, V), optionally keeping only the
// first of each run of equals, laid out row by row.
func oracle(nrows, ncols int, pairs []sparse.Edge, weights []float64, dedup bool) storage {
	idx := make([]int, len(pairs))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool {
		p, q := pairs[idx[a]], pairs[idx[b]]
		return p.U < q.U || p.U == q.U && p.V < q.V
	})
	out := storage{nrows: nrows, ncols: ncols, rowptr: make([]int64, nrows+1), col: []uint32{}}
	if weights != nil {
		out.val = []float64{}
	}
	for k, i := range idx {
		if dedup && k > 0 && pairs[i] == pairs[idx[k-1]] {
			continue
		}
		out.rowptr[pairs[i].U+1]++
		out.col = append(out.col, pairs[i].V)
		if weights != nil {
			out.val = append(out.val, weights[i])
		}
	}
	for r := 0; r < nrows; r++ {
		out.rowptr[r+1] += out.rowptr[r]
	}
	return out
}

func swapped(pairs []sparse.Edge) []sparse.Edge {
	out := make([]sparse.Edge, len(pairs))
	for i, p := range pairs {
		out[i] = sparse.Edge{U: p.V, V: p.U}
	}
	return out
}

// entriesOf lists a CSR's entries in row order.
func entriesOf(c *sparse.CSR) ([]sparse.Edge, []float64) {
	pairs := make([]sparse.Edge, 0, c.NumEdges())
	for r := 0; r < c.NumRows(); r++ {
		for _, v := range c.Row(r) {
			pairs = append(pairs, sparse.Edge{U: uint32(r), V: v})
		}
	}
	return pairs, c.Val
}

// checkBuilds runs the three builds on one pair list at 1, 2 and 3 workers
// against the oracle, byte for byte.
func checkBuilds(t *testing.T, name string, n0, n1 int, pairs []sparse.Edge, weights []float64) {
	t.Helper()
	in := slices.Clone(pairs)
	wantEdges := oracle(n0, n1, pairs, weights, true)
	wantNodes := oracle(n1, n0, swapped(pairs), weights, true)
	wantKept := oracle(n0, n1, pairs, weights, false)
	wantKeptT := oracle(n1, n0, swapped(pairs), weights, false)
	for workers := 1; workers <= 3; workers++ {
		eng := parallel.NewEngine(workers)
		fail := func(what, d string) {
			if d != "" {
				t.Errorf("%s, %d workers: %s: %s", name, workers, what, d)
			}
		}
		edges, nodes, err := sparse.BiAdjacencyOn(eng, &sparse.BiEdgeList{N0: n0, N1: n1, Edges: pairs, Weights: weights})
		if err != nil {
			t.Fatalf("%s, %d workers: BiAdjacencyOn: %v", name, workers, err)
		}
		fail("BiAdjacencyOn edges", storageOf(edges).diff(wantEdges))
		fail("BiAdjacencyOn nodes", storageOf(nodes).diff(wantNodes))
		kept, err := sparse.FromPairsOn(eng, n0, n1, pairs, weights)
		if err != nil {
			t.Fatalf("%s, %d workers: FromPairsOn: %v", name, workers, err)
		}
		fail("FromPairs", storageOf(kept).diff(wantKept))
		tr, err := sparse.TransposeOn(eng, kept)
		if err != nil {
			t.Fatalf("%s, %d workers: TransposeOn: %v", name, workers, err)
		}
		fail("TransposeOn", storageOf(tr).diff(wantKeptT))
		back, err := sparse.TransposeOn(eng, tr)
		if err != nil {
			t.Fatalf("%s, %d workers: TransposeOn back: %v", name, workers, err)
		}
		fail("transpose of transpose", storageOf(back).diff(storageOf(kept)))
		eng.Close()
	}
	if !slices.Equal(in, pairs) {
		t.Errorf("%s: the builds modified their input", name)
	}
	fail := storageOf(sparse.FromPairs(n0, n1, pairs, weights)).diff(wantKept)
	if fail != "" {
		t.Errorf("%s: FromPairs on the shared engine: %s", name, fail)
	}
}

func TestBiAdjacencyFromPairsTransposeMatchOracleAdversarial(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	random := func(n, n0, n1 int) []sparse.Edge {
		pairs := make([]sparse.Edge, n)
		for i := range pairs {
			pairs[i] = sparse.Edge{U: uint32(rng.Intn(n0)), V: uint32(rng.Intn(n1))}
		}
		return pairs
	}
	index := func(n int) []float64 { // conflicting weights: every duplicate carries its own
		w := make([]float64, n)
		for i := range w {
			w[i] = float64(i)
		}
		return w
	}
	byU := func(pairs []sparse.Edge) []sparse.Edge {
		sort.SliceStable(pairs, func(a, b int) bool { return pairs[a].U < pairs[b].U })
		return pairs
	}
	byV := func(pairs []sparse.Edge) []sparse.Edge {
		sort.SliceStable(pairs, func(a, b int) bool { return pairs[a].V < pairs[b].V })
		return pairs
	}
	same := make([]sparse.Edge, 500)
	for i := range same {
		same[i] = sparse.Edge{U: 2, V: 1}
	}
	oneRow, oneCol, evenRows := random(600, 1, 37), random(600, 41, 1), random(800, 30, 20)
	for i := range oneRow {
		oneRow[i].U = 3
	}
	for i := range oneCol {
		oneCol[i].V = 5
	}
	for i := range evenRows {
		evenRows[i].U &^= 1
		evenRows[i].V |= 1
	}
	for _, tc := range []struct {
		name    string
		n0, n1  int
		pairs   []sparse.Edge
		weights []float64
	}{
		{"unsorted with duplicates", 23, 61, random(3000, 23, 61), nil},
		{"unsorted, more rows than columns", 300, 7, random(4000, 300, 7), nil},
		{"hyperedge order, unsorted members, duplicates", 40, 50, byU(random(3000, 40, 50)), nil},
		{"hypernode order (Matrix Market column-major)", 40, 50, byV(random(3000, 40, 50)), nil},
		{"all duplicates", 4, 3, same, nil},
		{"all duplicates, conflicting weights", 4, 3, same, index(len(same))},
		{"empty list", 5, 9, nil, nil},
		{"empty list, weighted", 5, 9, nil, []float64{}},
		{"no rows, no columns", 0, 0, nil, nil},
		{"empty rows and columns interleaved", 30, 21, evenRows, nil},
		{"one row holding everything", 9, 37, oneRow, index(len(oneRow))},
		{"one column holding everything", 41, 8, oneCol, nil},
		{"trailing empty IDs", 5000, 7000, random(2000, 11, 13), nil},
		{"weighted, unsorted, conflicting duplicate weights", 17, 19, random(2500, 17, 19), index(2500)},
		{"weighted, hyperedge order, conflicting duplicate weights", 17, 19, byU(random(2500, 17, 19)), index(2500)},
	} {
		checkBuilds(t, tc.name, tc.n0, tc.n1, tc.pairs, tc.weights)
	}
}

// Every generator preset, as generated (hyperedge order), shuffled, and
// shuffled with a twentieth of the incidences repeated: the build must give
// back the preset's own CSR pair and agree with the oracle.
func TestBiAdjacencyFromPairsTransposeMatchOracleOnPresets(t *testing.T) {
	for _, p := range gen.Presets() {
		h := p.Build(0.1)
		pairs, _ := entriesOf(h.Edges)
		checkBuilds(t, p.Name, h.NumEdges(), h.NumNodes(), pairs, nil)

		rng := rand.New(rand.NewSource(int64(len(pairs))))
		noisy := slices.Clone(pairs)
		for i := 0; i < len(pairs)/20; i++ {
			noisy = append(noisy, pairs[rng.Intn(len(pairs))])
		}
		rng.Shuffle(len(noisy), func(i, j int) { noisy[i], noisy[j] = noisy[j], noisy[i] })
		checkBuilds(t, p.Name+" shuffled with duplicates", h.NumEdges(), h.NumNodes(), noisy, nil)

		edges, nodes := sparse.BiAdjacency(&sparse.BiEdgeList{N0: h.NumEdges(), N1: h.NumNodes(), Edges: noisy})
		if d := storageOf(edges).diff(storageOf(h.Edges)); d != "" {
			t.Errorf("%s: rebuilt edges: %s", p.Name, d)
		}
		if d := storageOf(nodes).diff(storageOf(h.Nodes)); d != "" {
			t.Errorf("%s: rebuilt nodes: %s", p.Name, d)
		}
		if d := storageOf(h.Edges.Transpose()).diff(storageOf(h.Nodes)); d != "" {
			t.Errorf("%s: Transpose of the edge incidence: %s", p.Name, d)
		}
	}
}
