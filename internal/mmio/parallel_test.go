package mmio

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"slices"
	"strings"
	"testing"

	"nwhy/internal/core"
	"nwhy/internal/gen"
	"nwhy/internal/parallel"
	"nwhy/internal/parallel/paralleltest"
	"nwhy/internal/sparse"
)

// belFromHypergraph flattens a hypergraph's incidence CSR back into a
// bipartite edge list, optionally attaching synthetic weights.
func belFromHypergraph(h *core.Hypergraph, weighted bool, seed int64) *sparse.BiEdgeList {
	rng := rand.New(rand.NewSource(seed))
	bel := sparse.NewBiEdgeList(h.NumEdges(), h.NumNodes())
	for e := 0; e < h.NumEdges(); e++ {
		for _, v := range h.EdgeIncidence(e) {
			if weighted {
				bel.AddWeighted(uint32(e), v, float64(rng.Intn(2000)-1000)/16)
			} else {
				bel.Add(uint32(e), v)
			}
		}
	}
	bel.N0, bel.N1 = h.NumEdges(), h.NumNodes()
	return bel
}

func belEqual(a, b *sparse.BiEdgeList) bool {
	return a.N0 == b.N0 && a.N1 == b.N1 &&
		(a.Edges == nil) == (b.Edges == nil) && (a.Weights == nil) == (b.Weights == nil) &&
		slices.Equal(a.Edges, b.Edges) && slices.Equal(a.Weights, b.Weights)
}

// The tentpole parity property: on round-tripped internal/gen hypergraphs,
// the chunked parallel reader returns exactly what the serial reader does.
func TestParallelSerialParityOnGenerated(t *testing.T) {
	eng := parallel.NewEngine(4)
	defer eng.Close()
	graphs := []*core.Hypergraph{
		gen.Uniform(40, 60, 4, 1),
		gen.BipartitePowerLaw(200, 150, 1200, 1.8, 2),
		gen.BipartitePowerLaw(1000, 700, 6000, 1.5, 3),
	}
	for gi, h := range graphs {
		for _, weighted := range []bool{false, true} {
			bel := belFromHypergraph(h, weighted, int64(gi))
			var buf bytes.Buffer
			if err := WriteBiEdgeList(&buf, bel); err != nil {
				t.Fatal(err)
			}
			serial, err := ReadBiEdgeList(bytes.NewReader(buf.Bytes()))
			if err != nil {
				t.Fatalf("graph %d weighted=%v: serial: %v", gi, weighted, err)
			}
			par, err := ReadBiEdgeListParallel(eng, buf.Bytes())
			if err != nil {
				t.Fatalf("graph %d weighted=%v: parallel: %v", gi, weighted, err)
			}
			if !belEqual(serial, par) {
				t.Fatalf("graph %d weighted=%v: parallel result differs from serial", gi, weighted)
			}
		}
	}
}

// Nasty-formatting inputs both readers must agree on, value for value:
// CRLF endings, comments and blanks between entries, padded lines, and the
// float spellings that straddle the fast/slow parse paths.
func TestParallelSerialParityFormatting(t *testing.T) {
	eng := parallel.NewEngine(3)
	defer eng.Close()
	inputs := []string{
		"%%MatrixMarket matrix coordinate pattern general\r\n% c\r\n3 3 2\r\n1 1\r\n3 3\r\n",
		"%%MatrixMarket matrix coordinate pattern general\n3 3 2\n\n% mid\n  1\t2  \n3 1\n",
		"%%MatrixMarket matrix coordinate real general\n2 2 4\n1 1 .5\n1 2 1e3\n2 1 -2.25e-2\n2 2 184467440737095516150\n",
		"%%MatrixMarket matrix coordinate real general\n2 2 3\n1 1 5.\n1 2 +0.125\n2 2 9007199254740993\n",
		"%%MatrixMarket matrix coordinate integer general\n2 2 2\n1 1 7\n2 2 -3\n",
		"%%MatrixMarket matrix coordinate pattern general\n1 1 1\n1 1", // no trailing newline
	}
	for i, in := range inputs {
		serial, serr := ReadBiEdgeList(strings.NewReader(in))
		par, perr := ReadBiEdgeListParallel(eng, []byte(in))
		if (serr == nil) != (perr == nil) {
			t.Fatalf("input %d: serial err %v, parallel err %v", i, serr, perr)
		}
		if serr != nil {
			continue
		}
		if !belEqual(serial, par) {
			t.Fatalf("input %d: results differ\nserial: %+v\nparallel: %+v", i, serial, par)
		}
	}
}

// Malformed inputs must fail in both readers with the same message.
func TestParallelSerialParityErrors(t *testing.T) {
	eng := parallel.NewEngine(3)
	defer eng.Close()
	inputs := []string{
		"",
		"%%MatrixMarket matrix coordinate pattern symmetric\n2 2 1\n1 2\n",
		"%%MatrixMarket matrix coordinate pattern general\n",
		"%%MatrixMarket matrix coordinate pattern general\n1 2\n",
		"%%MatrixMarket matrix coordinate pattern general\n2 2 2\n1 1\n",
		"%%MatrixMarket matrix coordinate pattern general\n2 2 1\n3 1\n",
		"%%MatrixMarket matrix coordinate pattern general\n2 2 1\n1 1 9\n",
		"%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1 zebra\n",
	}
	for i, in := range inputs {
		_, serr := ReadBiEdgeList(strings.NewReader(in))
		_, perr := ReadBiEdgeListParallel(eng, []byte(in))
		if serr == nil || perr == nil {
			t.Fatalf("input %d: expected both to fail, serial %v parallel %v", i, serr, perr)
		}
		if serr.Error() != perr.Error() {
			t.Fatalf("input %d: error mismatch\nserial:   %v\nparallel: %v", i, serr, perr)
		}
	}
}

func TestParallelReaderCancellation(t *testing.T) {
	eng := parallel.NewEngine(4)
	defer eng.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ceng := eng.WithContext(ctx)
	bel := belFromHypergraph(gen.BipartitePowerLaw(500, 300, 3000, 1.6, 9), false, 0)
	var buf bytes.Buffer
	if err := WriteBiEdgeList(&buf, bel); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadBiEdgeListParallel(ceng, buf.Bytes()); err != context.Canceled {
		t.Fatalf("cancelled parse returned %v, want context.Canceled", err)
	}
}

// commentEvery returns file with a comment line before every n-th line of
// its entry body: every chunk of a parse comes up short of its window.
func commentEvery(file []byte, n int) []byte {
	var out []byte
	for k, line := range bytes.SplitAfter(file, []byte{'\n'}) {
		if k > 2 && k%n == 0 {
			out = append(out, "% a gap to close\n"...)
		}
		out = append(out, line...)
	}
	return out
}

// A parse cancelled at any poll of its count phase, its scan phase or the
// checks between and after them returns the engine's error and no list:
// never a list with a window left open. Pattern and real, with and without
// gaps to close.
func TestParseCancelledAtEveryPoll(t *testing.T) {
	eng := parallel.NewEngine(3)
	defer eng.Close()
	h := gen.BipartitePowerLaw(500, 300, 3000, 1.6, 9)
	for _, weighted := range []bool{false, true} {
		var buf bytes.Buffer
		if err := WriteBiEdgeList(&buf, belFromHypergraph(h, weighted, 1)); err != nil {
			t.Fatal(err)
		}
		for _, data := range [][]byte{buf.Bytes(), commentEvery(buf.Bytes(), 50)} {
			want, err := parentReadBiEdgeListParallel(eng, data)
			if err != nil {
				t.Fatal(err)
			}
			paralleltest.CancelAtEveryPoll(t, eng, func(e *parallel.Engine) (*sparse.BiEdgeList, error) {
				return ReadBiEdgeListParallel(e, data)
			}, func(got *sparse.BiEdgeList) error {
				if !belEqual(got, want) {
					return fmt.Errorf("list differs from the parent's")
				}
				return nil
			})
		}
	}
}

// The serial reader went through a bufio.Scanner with a 16 MiB token limit
// and rejected what the parallel one accepted: a longer line. One loop, one
// answer.
func TestLineBeyondTheOldScannerLimit(t *testing.T) {
	eng := parallel.NewEngine(2)
	defer eng.Close()
	data := mtx("pattern", 2, 2, 2, "1 1\n", "%"+strings.Repeat("x", 17<<20)+"\n", "2 2\n")
	if _, err := parentReadBiEdgeListParallel(eng, data); err != nil {
		t.Fatal(err)
	}
	sameAsParent(t, eng, "17 MiB comment", data)
}

// A size line cannot make the readers allocate: the pair array is sized
// from the lines the body holds, so 10^18 declared entries over a 40-byte
// body cost a few hundred bytes and the count-mismatch error.
func TestLyingSizeLineAllocatesByBody(t *testing.T) {
	eng := parallel.NewEngine(2)
	defer eng.Close()
	body := strings.Repeat("1 1\n", 10)
	data := mtx("pattern", 5, 5, 1e18, body)
	want := "mmio: header declared 1000000000000000000 entries, found 10"
	for name, read := range readers(eng) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := read(data)
		runtime.ReadMemStats(&after)
		if err == nil || err.Error() != want {
			t.Fatalf("%s reader: error %v, want %s", name, err, want)
		}
		// 8 B a line for its pair; the rest is the error, the chunk tables and
		// the stream reader's buffer.
		if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(8*len(body)+8<<10); got > limit {
			t.Fatalf("%s reader allocated %d B over a %d-byte body (limit %d)", name, got, len(body), limit)
		}
	}
	sameAsParent(t, eng, "10^18 declared", data)
}

func TestGraphReaderParallelFile(t *testing.T) {
	eng := parallel.NewEngine(2)
	defer eng.Close()
	dir := t.TempDir()
	path := dir + "/h.mtx"
	bel := belFromHypergraph(gen.Uniform(10, 12, 3, 4), false, 0)
	if err := WriteHypergraphFile(path, bel); err != nil {
		t.Fatal(err)
	}
	got, err := GraphReaderParallel(eng, path)
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want, err := ReadBiEdgeList(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if !belEqual(got, want) {
		t.Fatal("file parallel read differs from serial")
	}
	if _, err := GraphReaderParallel(eng, dir+"/missing.mtx"); err == nil {
		t.Fatal("missing file accepted")
	}
}

func TestChunkBoundariesInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 200; trial++ {
		n := rng.Intn(400)
		body := make([]byte, n)
		for i := range body {
			if rng.Intn(6) == 0 {
				body[i] = '\n'
			} else {
				body[i] = 'a'
			}
		}
		target := 1 + rng.Intn(8)
		bounds := chunkBoundaries(body, target)
		if bounds[0] != 0 || bounds[len(bounds)-1] != n {
			t.Fatalf("endpoints %v for n=%d", bounds, n)
		}
		for k := 1; k < len(bounds); k++ {
			if bounds[k] <= bounds[k-1] && !(k == len(bounds)-1 && n == 0) {
				t.Fatalf("not strictly increasing: %v", bounds)
			}
			if k < len(bounds)-1 && body[bounds[k]-1] != '\n' {
				t.Fatalf("boundary %d not newline-aligned in %q", bounds[k], body)
			}
		}
	}
}

// Exhaustive float spelling parity between the fast path and strconv, over
// generated mantissa/exponent shapes.
func TestParseFloatBytesMatchesStrconv(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	specials := []string{"0", "-0", "0.0", "1", "5.", ".5", "1e0", "1E5", "1e-5", "1e+22", "1e-22",
		"1e23", "1e-23", "9007199254740991", "9007199254740993", "1.7976931348623157e308",
		"5e-324", "inf", "-inf", "nan", "Infinity", "1e400", "1e-400", "3.14159265358979323846",
		"184467440737095516150.5", "0.1", "0.2", "0.3", "123456.789e-10"}
	for trial := 0; trial < 3000; trial++ {
		var s string
		if trial < len(specials) {
			s = specials[trial]
		} else {
			s = fmt.Sprintf("%d.%de%d", rng.Intn(1<<30), rng.Intn(1<<20), rng.Intn(60)-30)
			if rng.Intn(2) == 0 {
				s = "-" + s
			}
		}
		got, ok := parseFloatBytes([]byte(s))
		want, wok := parseFloatSlow([]byte(s))
		if ok != wok {
			t.Fatalf("%q: accept mismatch fast=%v strconv=%v", s, ok, wok)
		}
		if ok && got != want && !(got != got && want != want) { // NaN == NaN
			t.Fatalf("%q: fast %v (%b) != strconv %v (%b)", s, got, got, want, want)
		}
	}
}

func BenchmarkReadSerial(b *testing.B)   { benchRead(b, 1) }
func BenchmarkReadParallel(b *testing.B) { benchRead(b, 0) }

// benchRead parses four files: the power-law one, the ingest-traverse
// shape of the end-to-end benchmark (1 M incidences in hyperedge order), that
// file with a comment every 1 000 lines (the gap-closing path), and it as a
// real file (the general path on every line), on an engine of the given
// workers (0: GOMAXPROCS; 1 is the single-threaded parse). Run at -cpu 1,2.
func benchRead(b *testing.B, workers int) {
	eng := parallel.NewEngine(workers)
	defer eng.Close()
	text := func(bel *sparse.BiEdgeList) []byte {
		var buf bytes.Buffer
		if err := WriteBiEdgeList(&buf, bel); err != nil {
			b.Fatal(err)
		}
		return buf.Bytes()
	}
	uniform := gen.Uniform(100000, 100000, 10, 1)
	plain := text(belFromHypergraph(uniform, false, 0))
	files := []struct {
		name string
		data []byte
	}{
		{"power-law", text(belFromHypergraph(gen.BipartitePowerLaw(20000, 15000, 120000, 1.6, 42), false, 0))},
		{"uniform", plain},
		{"uniform-comments", commentEvery(plain, 1000)},
		{"uniform-real", text(belFromHypergraph(uniform, true, 0))},
	}
	for _, f := range files {
		b.Run(f.name, func(b *testing.B) {
			b.SetBytes(int64(len(f.data)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := ReadBiEdgeListParallel(eng, f.data); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
