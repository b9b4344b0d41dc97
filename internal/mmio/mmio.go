// Package mmio reads and writes hypergraphs in the two formats programs use:
// Matrix Market coordinate text, the interchange format the paper's
// graph_reader consumes, and the .nwhyb binary snapshot of the hyperedge
// incidence CSR (snapshot.go). A hypergraph's incidence matrix is a
// rectangular pattern (or real/integer) matrix: rows are hyperedges, columns
// are hypernodes, and each stored entry is one incidence. The adjoin form is
// derived from the bipartite one in memory (core.Adjoin), never read.
package mmio

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"os"
	"strings"

	"nwhy/internal/sparse"
)

// Header describes a Matrix Market file's declared type.
type Header struct {
	Field    string // pattern | real | integer
	Symmetry string // general | symmetric
}

// parseHeader validates the banner line.
func parseHeader(line string) (Header, error) {
	fields := strings.Fields(strings.ToLower(line))
	if len(fields) != 5 || fields[0] != "%%matrixmarket" || fields[1] != "matrix" || fields[2] != "coordinate" {
		return Header{}, fmt.Errorf("mmio: unsupported banner %q (want %%%%MatrixMarket matrix coordinate ...)", line)
	}
	h := Header{Field: fields[3], Symmetry: fields[4]}
	switch h.Field {
	case "pattern", "real", "integer":
	default:
		return Header{}, fmt.Errorf("mmio: unsupported field %q", h.Field)
	}
	switch h.Symmetry {
	case "general", "symmetric":
	default:
		return Header{}, fmt.Errorf("mmio: unsupported symmetry %q", h.Symmetry)
	}
	return h, nil
}

// ReadBiEdgeList parses a Matrix Market stream as a hypergraph incidence
// matrix: entry (i, j) declares hyperedge i-1 incident on hypernode j-1.
// Real/integer values are kept as incidence weights; pattern files produce
// an unweighted list. Symmetric files are rejected (incidence matrices are
// rectangular and general). Entry lines must have exactly the declared field
// count — two indices, plus a value for non-pattern files; extra columns are
// an error, not ignored. It reads the stream to its end first, then parses it
// as one chunk on the calling goroutine: the loop, the language and the
// errors are ReadBiEdgeListParallel's (readChunks). No program path calls
// it; it is the fuzz targets' serial reference.
func ReadBiEdgeList(r io.Reader) (*sparse.BiEdgeList, error) {
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(r); err != nil {
		return nil, fmt.Errorf("mmio: %w", err)
	}
	return readChunks(buf.Bytes(), 1, func(n int, each func(c int)) error {
		for c := 0; c < n; c++ {
			each(c)
		}
		return nil
	})
}

// WriteBiEdgeList writes bel as a Matrix Market pattern (or real, when
// weighted) coordinate file.
func WriteBiEdgeList(w io.Writer, bel *sparse.BiEdgeList) error {
	bw := bufio.NewWriter(w)
	field := "pattern"
	if bel.Weights != nil {
		field = "real"
	}
	fmt.Fprintf(bw, "%%%%MatrixMarket matrix coordinate %s general\n", field)
	fmt.Fprintf(bw, "%% hypergraph incidence: rows = hyperedges, cols = hypernodes\n")
	fmt.Fprintf(bw, "%d %d %d\n", bel.N0, bel.N1, len(bel.Edges))
	for k, e := range bel.Edges {
		if bel.Weights != nil {
			fmt.Fprintf(bw, "%d %d %g\n", e.U+1, e.V+1, bel.Weights[k])
		} else {
			fmt.Fprintf(bw, "%d %d\n", e.U+1, e.V+1)
		}
	}
	return bw.Flush()
}

// WriteHypergraphFile writes a bipartite edge list to path.
func WriteHypergraphFile(path string, bel *sparse.BiEdgeList) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := WriteBiEdgeList(f, bel); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
