package mmio

import (
	"bytes"
	"reflect"
	"testing"

	"nwhy/internal/parallel"
)

// FuzzReadBiEdgeList drives arbitrary bytes through both Matrix Market
// readers. The property is differential: the serial and parallel readers
// must agree on acceptance, and on accepted inputs produce identical
// structures whose invariants (declared shapes, weight alignment,
// in-range endpoints) hold.
func FuzzReadBiEdgeList(f *testing.F) {
	f.Add([]byte(paperMM))
	f.Add([]byte("%%MatrixMarket matrix coordinate real general\n2 3 2\n1 3 2.5\n2 1 -1\n"))
	f.Add([]byte("%%MatrixMarket matrix coordinate integer general\n1 1 1\n1 1 7\n"))
	f.Add([]byte("%%MatrixMarket matrix coordinate pattern general\r\n% c\r\n3 3 1\r\n2 2\r\n"))
	f.Add([]byte("%%MatrixMarket matrix coordinate pattern general\n99999999 99999999 1\n1 1\n"))
	f.Add([]byte("%%MatrixMarket matrix coordinate real general\n1 1 1\n1 1 1e-400\n"))
	f.Add([]byte(""))
	eng := parallel.SharedEngine()
	f.Fuzz(func(t *testing.T, data []byte) {
		serial, serr := ReadBiEdgeList(bytes.NewReader(data))
		par, perr := ReadBiEdgeListParallel(eng, data)
		if (serr == nil) != (perr == nil) {
			t.Fatalf("acceptance mismatch: serial %v, parallel %v", serr, perr)
		}
		if serr != nil {
			return
		}
		if serial.N0 != par.N0 || serial.N1 != par.N1 ||
			!reflect.DeepEqual(serial.Edges, par.Edges) ||
			!reflect.DeepEqual(serial.Weights, par.Weights) {
			t.Fatal("parallel reader result differs from serial")
		}
		if err := serial.Validate(); err != nil {
			t.Fatalf("accepted input produced invalid list: %v", err)
		}
	})
}

// FuzzParseMatchesParent holds the fast path and the count-then-write
// assembly to the parser they replaced (parent_test.go): on any bytes, every
// reader returns the parent's list or the parent's error string. Worker
// counts 1 to 3 move the chunk cuts across the input.
func FuzzParseMatchesParent(f *testing.F) {
	f.Add([]byte(paperMM), uint8(0))
	f.Add(mtx("pattern", 50, 60, 41, append(plain(40), "007 0012\n")...), uint8(1))
	f.Add(mtx("pattern", 50, 60, 40, append(plain(20), append([]string{"% gap\n", "\n", "1 2 \r\n"}, plain(19)...)...)...), uint8(2))
	f.Add(mtx("pattern", 50, 60, 3, "1 18446744073709551618\n", "999999999999999999 1\n", "51 1"), uint8(2))
	f.Add(mtx("real", 2, 3, 2, "1 3 2.5\n", "% c\n", "2 1 -1\n"), uint8(1))
	f.Add(mtx("integer", 1, 1, 1<<40, "1 1 7\n"), uint8(0))
	engines := [3]*parallel.Engine{parallel.NewEngine(1), parallel.NewEngine(2), parallel.NewEngine(3)}
	f.Cleanup(func() {
		for _, eng := range engines {
			eng.Close()
		}
	})
	f.Fuzz(func(t *testing.T, data []byte, workers uint8) {
		sameAsParent(t, engines[workers%3], "fuzz input", data)
	})
}
