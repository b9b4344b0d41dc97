package mmio

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"nwhy/internal/core"
	"nwhy/internal/gen"
	"nwhy/internal/parallel"
	"nwhy/internal/sparse"
)

// This file keeps the parser as it stood before the two-integer fast path
// and the count-then-write layout (PR 27), verbatim but for the parent
// prefix on its names and parallel.ScanExclusive spelled out as the serial
// prefix sum it was at these sizes. It is the reference the differential
// tests and FuzzParseMatchesParent hold both readers to: the serial reader
// stopped being one when it began to share the parallel reader's loop.

func parentReadBiEdgeListParallel(eng *parallel.Engine, data []byte) (*sparse.BiEdgeList, error) {
	header, rows, cols, nnz, body, err := readPreambleBytes(data)
	if err != nil {
		return nil, err
	}
	if header.Symmetry != "general" {
		return nil, fmt.Errorf("mmio: hypergraph incidence must be general, got %s", header.Symmetry)
	}
	weighted := header.Field != "pattern"
	bounds := chunkBoundaries(body, eng.NumWorkers()*4)
	nchunks := len(bounds) - 1
	chunks := make([]parentParsedChunk, nchunks)
	// The header's entries per byte size each chunk's slices up front. An
	// entry line is at least 4 bytes ("1 1\n"): a lying header asks in vain.
	perByte := float64(min(nnz, len(body)/4+1)) / float64(max(len(body), 1))
	eng.For(parallel.BlockedGrain(0, nchunks, 1), func(_, lo, hi int) {
		for c := lo; c < hi; c++ {
			chunk := body[bounds[c]:bounds[c+1]]
			chunks[c] = parentParseChunk(chunk, weighted, rows, cols, int(perByte*float64(len(chunk)))+16)
		}
	})
	if err := eng.Err(); err != nil {
		return nil, err
	}
	for c := range chunks {
		if chunks[c].err != nil {
			return nil, chunks[c].err
		}
	}
	offsets := make([]int64, nchunks)
	var total int64
	for c := range chunks {
		offsets[c] = total
		total += int64(len(chunks[c].edges))
	}
	if total != int64(nnz) {
		return nil, fmt.Errorf("mmio: header declared %d entries, found %d", nnz, total)
	}
	bel := sparse.NewBiEdgeList(rows, cols)
	bel.Edges = make([]sparse.Edge, total)
	if weighted {
		bel.Weights = make([]float64, total)
	}
	eng.For(parallel.BlockedGrain(0, nchunks, 1), func(_, lo, hi int) {
		for c := lo; c < hi; c++ {
			copy(bel.Edges[offsets[c]:], chunks[c].edges)
			if weighted {
				copy(bel.Weights[offsets[c]:], chunks[c].weights)
			}
		}
	})
	if err := eng.Err(); err != nil {
		return nil, err
	}
	return bel, nil
}

type parentParsedChunk struct {
	edges   []sparse.Edge
	weights []float64
	err     error
}

func parentParseChunk(chunk []byte, weighted bool, rows, cols, hint int) parentParsedChunk {
	out := parentParsedChunk{edges: make([]sparse.Edge, 0, hint)}
	if weighted {
		out.weights = make([]float64, 0, hint)
	}
	for len(chunk) > 0 {
		var line []byte
		line, chunk = nextLine(chunk)
		line = trimASCII(line)
		if len(line) == 0 || line[0] == '%' {
			continue
		}
		i, j, w, ok := parseEntryBytes(line, weighted)
		if !ok {
			out.err = fmt.Errorf("mmio: bad entry %q", line)
			return out
		}
		if i < 1 || i > int64(rows) || j < 1 || j > int64(cols) {
			out.err = fmt.Errorf("mmio: entry (%d,%d) outside %dx%d", i, j, rows, cols)
			return out
		}
		out.edges = append(out.edges, sparse.Edge{U: uint32(i - 1), V: uint32(j - 1)})
		if weighted {
			out.weights = append(out.weights, w)
		}
	}
	return out
}

// readers are the two routes into the one entry loop, each held to the
// parent's result.
func readers(eng *parallel.Engine) map[string]func([]byte) (*sparse.BiEdgeList, error) {
	return map[string]func([]byte) (*sparse.BiEdgeList, error){
		"parallel": func(data []byte) (*sparse.BiEdgeList, error) { return ReadBiEdgeListParallel(eng, data) },
		"stream":   func(data []byte) (*sparse.BiEdgeList, error) { return ReadBiEdgeList(bytes.NewReader(data)) },
	}
}

// sameAsParent fails unless every reader returns, for data, the parent's
// list (edges and weights) or the parent's error string.
func sameAsParent(t *testing.T, eng *parallel.Engine, name string, data []byte) {
	t.Helper()
	want, werr := parentReadBiEdgeListParallel(eng, data)
	for reader, read := range readers(eng) {
		got, err := read(data)
		switch {
		case (err == nil) != (werr == nil) || err != nil && err.Error() != werr.Error():
			t.Errorf("%s, %s reader on %d workers: error %v, parent's %v", name, reader, eng.NumWorkers(), err, werr)
		case err == nil && !belEqual(got, want):
			t.Errorf("%s, %s reader on %d workers: list differs from the parent's", name, reader, eng.NumWorkers())
		}
	}
}

// mtx writes a file of the given field whose size line declares a
// rows x cols matrix of nnz entries over the given body lines.
func mtx(field string, rows, cols, nnz int, lines ...string) []byte {
	return []byte(fmt.Sprintf("%%%%MatrixMarket matrix coordinate %s general\n%d %d %d\n%s",
		field, rows, cols, nnz, strings.Join(lines, "")))
}

// plain is n well-formed pattern lines inside a 50 x 60 matrix.
func plain(n int) []string {
	lines := make([]string, n)
	for k := range lines {
		lines[k] = fmt.Sprintf("%d %d\n", k%50+1, k%60+1)
	}
	return lines
}

// TestParseSameAsParent sits one line on every edge of the fast path — at
// the head, in the middle and at the tail of a body long enough to be cut
// into every chunk count the three engines ask for — and then bends the
// body as a whole: comments that leave gaps, lying size lines, weighted
// files.
func TestParseSameAsParent(t *testing.T) {
	edgeLines := map[string]string{
		"leading zeros":        "007 0012\n",
		"plus sign":            "+1 1\n",
		"minus sign":           "-1 1\n",
		"minus second":         "1 -1\n",
		"tab":                  "1\t2\n",
		"two spaces":           "1  2\n",
		"leading blank":        " 1 2\n",
		"trailing blank":       "1 2 \n",
		"CRLF":                 "1 2\r\n",
		"lone CR":              "1 2\r",
		"18 digits":            "000000000000000003 000000000000000004\n",
		"19 digits":            "0000000000000000003 0000000000000000004\n",
		"20 digits":            "00000000000000000003 00000000000000000004\n",
		"18 nines":             "999999999999999999 1\n",
		"19 nines":             "1 9999999999999999999\n",
		"20 nines":             "99999999999999999999 1\n",
		"wraps uint64 to one":  "18446744073709551617 1\n",
		"second wraps to two":  "1 18446744073709551618\n",
		"row zero":             "0 1\n",
		"column zero":          "1 0\n",
		"row past the end":     "51 1\n",
		"column past the end":  "1 61\n",
		"last row and column":  "50 60\n",
		"third field":          "1 2 3\n",
		"one field":            "12\n",
		"one field and space":  "12 \n",
		"no first field":       " 12\n",
		"letters":              "1 x\n",
		"digits then letter":   "1 2x\n",
		"comment":              "% 1 2\n",
		"blank line":           "\n",
		"blanks only":          "  \t \n",
		"form feed":            "1\f2\n",
		"vertical tab at tail": "1 2\v\n",
	}
	for workers := 1; workers <= 3; workers++ {
		eng := parallel.NewEngine(workers)
		for name, line := range edgeLines {
			for _, at := range []int{0, 20, 40} {
				lines := plain(40)
				lines = append(lines[:at:at], append([]string{line}, lines[at:]...)...)
				sameAsParent(t, eng, fmt.Sprintf("%s at line %d", name, at), mtx("pattern", 50, 60, 41, lines...))
				sameAsParent(t, eng, fmt.Sprintf("%s at line %d, one entry short", name, at), mtx("pattern", 50, 60, 40, lines...))
			}
			// The same line as the file's last, without its newline.
			last := append(plain(40), strings.TrimSuffix(line, "\n"))
			sameAsParent(t, eng, name+" unterminated", mtx("pattern", 50, 60, 41, last...))
		}

		gaps := plain(200)
		for k := range gaps {
			switch {
			case k%7 == 3:
				gaps[k] = "% a comment in every chunk\n" + gaps[k]
			case k%11 == 5:
				gaps[k] = "\n" + gaps[k]
			}
		}
		tail := append(plain(200), "% only the last chunk\n", "\n", "% comes up short\n")
		bodies := map[string][]string{
			"no gaps":               plain(200),
			"gaps in every chunk":   gaps,
			"gaps in the last":      tail,
			"bad line before a gap": append(append(plain(90), "1 x\n"), gaps...),
			"bad line after a gap":  append(append(gaps[:150:150], "61 61\n"), plain(30)...),
			"two bad lines":         append(append(plain(30), "0 1\n"), append(plain(100), "x\n")...),
			"empty":                 nil,
			"comments only":         {"% nothing\n", "\n"},
		}
		for name, lines := range bodies {
			for _, nnz := range []int{200, 230, 170, 0, 1 << 40} {
				sameAsParent(t, eng, fmt.Sprintf("%s, %d declared", name, nnz), mtx("pattern", 50, 60, nnz, lines...))
			}
		}

		for _, field := range []string{"real", "integer"} {
			var lines []string
			for k := 0; k < 200; k++ {
				if k%9 == 4 {
					lines = append(lines, "% weights move with their entries\n")
				}
				lines = append(lines, fmt.Sprintf("%d %d %d\n", k%50+1, k%60+1, k-100))
			}
			sameAsParent(t, eng, field, mtx(field, 50, 60, 200, lines...))
			sameAsParent(t, eng, field+" short", mtx(field, 50, 60, 201, lines...))
			sameAsParent(t, eng, field+" missing value", mtx(field, 50, 60, 201, append(lines, "1 1\n")...))
			sameAsParent(t, eng, field+" as pattern", mtx("pattern", 50, 60, 200, lines...))
			if field == "real" {
				lines[17] = "3 4 -2.5e-3\n"
				lines[18] = "3 4 1e400\n"
				sameAsParent(t, eng, "real out of range", mtx(field, 50, 60, 200, lines...))
			}
		}
		eng.Close()
	}
}

func csrEqual(a, b *sparse.CSR) bool {
	return a.NumRows() == b.NumRows() && a.NumCols() == b.NumCols() &&
		slices.Equal(a.RowPtr, b.RowPtr) && slices.Equal(a.Col, b.Col) && slices.Equal(a.Val, b.Val)
}

// TestSameBytesAsParentOnInputs loads the end-to-end benchmark's five inputs
// and the internal/gen presets — as a generator writes them, in hyperedge
// order, and again shuffled with 2 % of the incidences repeated and a comment
// every 100 lines (the smaller ones also with weights) — and asks for the
// parent's bytes
// at 1, 2 and 3 workers: the same list from every reader, and so the same
// RowPtr, Col and Val on both sides of the hypergraph built from it.
func TestSameBytesAsParentOnInputs(t *testing.T) {
	const structureSeed = 20220530 // bench/inputs.go
	inputs := map[string]*core.Hypergraph{
		"batch-skew":      gen.BipartitePowerLaw(10000, 8000, 40000, 1.6, structureSeed),
		"batch-metrics":   gen.Community(gen.CommunityConfig{NumEdges: 3000, NumNodes: 600, MeanEdgeSize: 7, SizeSkew: 1.6, MemberSkew: 0.5, Seed: structureSeed}),
		"ingest-traverse": gen.Uniform(100000, 100000, 10, structureSeed),
		"serve-read":      gen.Community(gen.CommunityConfig{NumEdges: 6500, NumNodes: 1000, MeanEdgeSize: 7, SizeSkew: 1.6, MemberSkew: 0.5, Seed: structureSeed}),
		"serve-write":     gen.Containment(gen.ContainmentConfig{NumBase: 1200, NumNodes: 8000, BaseSize: 24, SubsPerBase: 7, MemberSkew: 0.45, Seed: structureSeed}),
	}
	for _, p := range gen.Presets() {
		inputs[p.Name] = p.Build(0.25)
	}
	engines := []*parallel.Engine{parallel.NewEngine(1), parallel.NewEngine(2), parallel.NewEngine(3)}
	for name, h := range inputs {
		ordered := belFromHypergraph(h, false, 0)
		noisy := belFromHypergraph(h, true, 7)
		rng := rand.New(rand.NewSource(7))
		for k, n := 0, len(noisy.Edges)/50; k < n; k++ {
			e := noisy.Edges[rng.Intn(len(noisy.Edges))]
			noisy.AddWeighted(e.U, e.V, float64(k))
		}
		rng.Shuffle(len(noisy.Edges), func(i, j int) {
			noisy.Edges[i], noisy.Edges[j] = noisy.Edges[j], noisy.Edges[i]
			noisy.Weights[i], noisy.Weights[j] = noisy.Weights[j], noisy.Weights[i]
		})
		var a, b, c bytes.Buffer
		err := errors.Join(WriteBiEdgeList(&a, ordered), WriteBiEdgeList(&b, &sparse.BiEdgeList{N0: noisy.N0, N1: noisy.N1, Edges: noisy.Edges}))
		files := map[string][]byte{"ordered": a.Bytes(), "shuffled": commentEvery(b.Bytes(), 100)}
		if len(noisy.Edges) < 100000 { // every line of a real file takes the general path: keep those small
			err = errors.Join(err, WriteBiEdgeList(&c, noisy))
			files["shuffled real"] = commentEvery(c.Bytes(), 100)
		}
		if err != nil {
			t.Fatal(err)
		}
		for variant, data := range files {
			sameAsParent(t, engines[0], name+" "+variant, data) // the stream reader too
			want, err := parentReadBiEdgeListParallel(engines[0], data)
			if err != nil {
				t.Fatal(err)
			}
			wantH, err := core.FromBiEdgeListOn(engines[0], want)
			if err != nil {
				t.Fatal(err)
			}
			for _, eng := range engines {
				got, err := ReadBiEdgeListParallel(eng, data)
				if err != nil {
					t.Fatal(err)
				}
				gotH, err := core.FromBiEdgeListOn(eng, got)
				if err != nil {
					t.Fatal(err)
				}
				if !belEqual(got, want) || !csrEqual(gotH.Edges, wantH.Edges) || !csrEqual(gotH.Nodes, wantH.Nodes) {
					t.Errorf("%s %s on %d workers: not the parent's bytes", name, variant, eng.NumWorkers())
				}
			}
		}
	}
	for _, eng := range engines {
		eng.Close()
	}
}
