package mmio

import (
	"bytes"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"math/rand"

	"nwhy/internal/core"
	"nwhy/internal/parallel"
	"nwhy/internal/sparse"
)

const paperMM = `%%MatrixMarket matrix coordinate pattern general
% the running example: 4 hyperedges over 9 hypernodes
4 9 13
1 1
1 2
1 3
2 3
2 4
2 5
3 5
3 6
3 7
4 7
4 8
4 9
4 1
`

func TestReadBiEdgeListPaperExample(t *testing.T) {
	bel, err := ReadBiEdgeList(strings.NewReader(paperMM))
	if err != nil {
		t.Fatal(err)
	}
	if bel.N0 != 4 || bel.N1 != 9 || bel.Len() != 13 {
		t.Fatalf("shape %d/%d/%d", bel.N0, bel.N1, bel.Len())
	}
	h := core.FromBiEdgeList(bel)
	if !reflect.DeepEqual(h.EdgeIncidence(0), []uint32{0, 1, 2}) {
		t.Fatalf("e0 = %v", h.EdgeIncidence(0))
	}
	if !reflect.DeepEqual(h.EdgeIncidence(3), []uint32{0, 6, 7, 8}) {
		t.Fatalf("e3 = %v", h.EdgeIncidence(3))
	}
}

func TestReadWeighted(t *testing.T) {
	in := `%%MatrixMarket matrix coordinate real general
2 3 2
1 3 2.5
2 1 -1
`
	bel, err := ReadBiEdgeList(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if bel.Weights == nil || bel.Weights[0] != 2.5 || bel.Weights[1] != -1 {
		t.Fatalf("weights = %v", bel.Weights)
	}
}

func TestReadIntegerField(t *testing.T) {
	in := "%%MatrixMarket matrix coordinate integer general\n1 1 1\n1 1 7\n"
	bel, err := ReadBiEdgeList(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if bel.Weights[0] != 7 {
		t.Fatalf("weight = %v", bel.Weights[0])
	}
}

func TestReadRejectsBadInputs(t *testing.T) {
	cases := map[string]string{
		"empty":          "",
		"bad banner":     "%%MatrixMarket matrix array real general\n1 1 1\n",
		"bad field":      "%%MatrixMarket matrix coordinate complex general\n1 1 1\n",
		"symmetric":      "%%MatrixMarket matrix coordinate pattern symmetric\n2 2 1\n1 2\n",
		"missing size":   "%%MatrixMarket matrix coordinate pattern general\n",
		"bad size line":  "%%MatrixMarket matrix coordinate pattern general\n1 2\n",
		"count mismatch": "%%MatrixMarket matrix coordinate pattern general\n2 2 2\n1 1\n",
		"out of range":   "%%MatrixMarket matrix coordinate pattern general\n2 2 1\n3 1\n",
		"bad entry":      "%%MatrixMarket matrix coordinate pattern general\n2 2 1\nx y\n",
		"missing value":  "%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1\n",
		// Trailing garbage columns must be rejected, not silently ignored.
		"extra field pattern":  "%%MatrixMarket matrix coordinate pattern general\n2 2 1\n1 1 9\n",
		"extra field weighted": "%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1 2.5 junk\n",
		"extra fields many":    "%%MatrixMarket matrix coordinate pattern general\n2 2 1\n1 1 2 3 4\n",
		"size line extra":      "%%MatrixMarket matrix coordinate pattern general\n2 2 1 7\n1 1\n",
		"bad value":            "%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1 1.2.3\n",
		"sign only entry":      "%%MatrixMarket matrix coordinate pattern general\n2 2 1\n+ 1\n",
		"huge dimension":       "%%MatrixMarket matrix coordinate pattern general\n99999999999999 2 1\n1 1\n",
	}
	for name, in := range cases {
		if _, err := ReadBiEdgeList(strings.NewReader(in)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		bel := sparse.NewBiEdgeList(1+rng.Intn(20), 1+rng.Intn(20))
		m := rng.Intn(100)
		seen := map[sparse.Edge]bool{}
		for i := 0; i < m; i++ {
			e := sparse.Edge{U: uint32(rng.Intn(bel.N0)), V: uint32(rng.Intn(bel.N1))}
			if !seen[e] {
				seen[e] = true
				bel.Edges = append(bel.Edges, e)
			}
		}
		var buf bytes.Buffer
		if err := WriteBiEdgeList(&buf, bel); err != nil {
			return false
		}
		back, err := ReadBiEdgeList(&buf)
		if err != nil {
			return false
		}
		if back.N0 != bel.N0 || back.N1 != bel.N1 || len(back.Edges) != len(bel.Edges) {
			return false
		}
		for i := range back.Edges {
			if back.Edges[i] != bel.Edges[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestWriteReadWeightedRoundTrip(t *testing.T) {
	bel := sparse.NewBiEdgeList(2, 2)
	bel.AddWeighted(0, 1, 3.5)
	bel.AddWeighted(1, 0, -2)
	var buf bytes.Buffer
	if err := WriteBiEdgeList(&buf, bel); err != nil {
		t.Fatal(err)
	}
	back, err := ReadBiEdgeList(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back.Weights, bel.Weights) {
		t.Fatalf("weights = %v", back.Weights)
	}
}

func TestFileRoundTrip(t *testing.T) {
	eng := parallel.NewEngine(2)
	defer eng.Close()
	path := filepath.Join(t.TempDir(), "h.mtx")
	bel := sparse.NewBiEdgeList(3, 3)
	bel.Add(0, 2)
	bel.Add(2, 0)
	if err := WriteHypergraphFile(path, bel); err != nil {
		t.Fatal(err)
	}
	back, err := GraphReaderParallel(eng, path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back.Edges, bel.Edges) {
		t.Fatal("file round trip failed")
	}
}

// Both file readers report a missing file.
func TestGraphReaderMissingFile(t *testing.T) {
	eng := parallel.NewEngine(1)
	defer eng.Close()
	if _, err := GraphReaderParallel(eng, "/nonexistent/x.mtx"); err == nil {
		t.Fatal("missing file accepted")
	}
	if _, err := LoadSnapshot(eng, "/nonexistent/x.nwhyb"); err == nil {
		t.Fatal("missing file accepted")
	}
}

func TestCommentsAndBlankLines(t *testing.T) {
	in := "%%MatrixMarket matrix coordinate pattern general\n% c1\n\n% c2\n2 2 1\n\n% inline\n1 2\n"
	bel, err := ReadBiEdgeList(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if bel.Len() != 1 {
		t.Fatalf("Len = %d", bel.Len())
	}
}
