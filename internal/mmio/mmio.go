// Package mmio reads and writes hypergraphs in Matrix Market coordinate
// format, the interchange format the paper's graph_reader /
// graph_reader_adjoin APIs consume. A hypergraph's incidence matrix is a
// rectangular pattern (or real/integer) matrix: rows are hyperedges, columns
// are hypernodes, and each stored entry is one incidence.
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
// an error, not ignored. It reads the stream to its end first: the parse is
// readSerial's.
func ReadBiEdgeList(r io.Reader) (*sparse.BiEdgeList, error) {
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(r); err != nil {
		return nil, fmt.Errorf("mmio: %w", err)
	}
	return readSerial(buf.Bytes())
}

// readSerial parses a whole file in memory as one chunk on the calling
// goroutine: the loop, the language and the errors are
// ReadBiEdgeListParallel's (readChunks).
func readSerial(data []byte) (*sparse.BiEdgeList, error) {
	return readChunks(data, 1, func(n int, each func(c int)) error {
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

// GraphReader opens path and reads the bipartite edge list of a hypergraph,
// mirroring the paper's graph_reader(mm_file).
func GraphReader(path string) (*sparse.BiEdgeList, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return readSerial(data)
}

// ReadAdjoin parses a Matrix Market incidence stream directly into an
// adjoined edge list over the single shared index space: hyperedge i keeps
// ID i, hypernode j becomes ID rows+j, and both directions of every
// incidence are materialized. It returns the edge list plus the partition
// sizes (the paper's nrealedges / nrealnodes out-parameters).
func ReadAdjoin(r io.Reader) (el *sparse.EdgeList, nrealedges, nrealnodes int, err error) {
	return adjoin(ReadBiEdgeList(r))
}

// adjoin is the second half of ReadAdjoin: the shared-index-space form of a
// list some reader returned, or that reader's error.
func adjoin(bel *sparse.BiEdgeList, err error) (*sparse.EdgeList, int, int, error) {
	if err != nil {
		return nil, 0, 0, err
	}
	el := sparse.NewEdgeList(bel.N0 + bel.N1)
	el.Edges = make([]sparse.Edge, 0, 2*len(bel.Edges))
	for _, e := range bel.Edges {
		shared := uint32(bel.N0) + e.V
		el.Edges = append(el.Edges,
			sparse.Edge{U: e.U, V: shared},
			sparse.Edge{U: shared, V: e.U})
	}
	return el, bel.N0, bel.N1, nil
}

// GraphReaderAdjoin opens path and reads it in adjoin form, mirroring the
// paper's graph_reader_adjoin(mm_file, nrealedges, nrealnodes).
func GraphReaderAdjoin(path string) (*sparse.EdgeList, int, int, error) {
	return adjoin(GraphReader(path))
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
