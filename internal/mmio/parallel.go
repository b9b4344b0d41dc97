package mmio

import (
	"fmt"
	"os"

	"nwhy/internal/parallel"
	"nwhy/internal/sparse"
)

// ReadBiEdgeListParallel parses data — a whole Matrix Market file in memory
// — with engine-parallel chunked scanning: the entry body is split into
// newline-aligned byte ranges, each worker scans its range with the shared
// byte-level scanners into a private edge chunk, and the chunks are
// assembled into the final list by an exclusive scan over chunk sizes plus a
// parallel scatter copy. It produces exactly the BiEdgeList ReadBiEdgeList
// produces, or exactly its error for malformed input (the earliest bad line
// wins, matching the serial reader's first-error semantics). Cancellation is
// observed at chunk boundaries; an aborted parse returns eng.Err().
func ReadBiEdgeListParallel(eng *parallel.Engine, data []byte) (*sparse.BiEdgeList, error) {
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
	chunks := make([]parsedChunk, nchunks)
	// The header's entries per byte size each chunk's slices up front. An
	// entry line is at least 4 bytes ("1 1\n"): a lying header asks in vain.
	perByte := float64(min(nnz, len(body)/4+1)) / float64(max(len(body), 1))
	eng.For(parallel.BlockedGrain(0, nchunks, 1), func(_, lo, hi int) {
		for c := lo; c < hi; c++ {
			chunk := body[bounds[c]:bounds[c+1]]
			chunks[c] = parseChunk(chunk, weighted, rows, cols, int(perByte*float64(len(chunk)))+16)
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
	for c := range chunks {
		offsets[c] = int64(len(chunks[c].edges))
	}
	total := parallel.ScanExclusive(offsets)
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

// GraphReaderParallel reads path into memory and parses it with
// ReadBiEdgeListParallel — the parallel counterpart of GraphReader.
func GraphReaderParallel(eng *parallel.Engine, path string) (*sparse.BiEdgeList, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return ReadBiEdgeListParallel(eng, data)
}

// parsedChunk is one worker's output for one byte range: the edges (and
// weights, for non-pattern files) of its lines, or the first parse error.
type parsedChunk struct {
	edges   []sparse.Edge
	weights []float64
	err     error
}

// parseChunk scans one newline-aligned byte range with the same
// line-by-line logic as the serial reader's entry loop. hint is the expected
// entry count, a capacity and not a limit.
func parseChunk(chunk []byte, weighted bool, rows, cols, hint int) parsedChunk {
	out := parsedChunk{edges: make([]sparse.Edge, 0, hint)}
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

// readPreambleBytes is readPreamble over an in-memory file: it consumes the
// banner, comments, and size line and returns the remaining entry body.
func readPreambleBytes(data []byte) (Header, int, int, int, []byte, error) {
	if len(data) == 0 {
		return Header{}, 0, 0, 0, nil, fmt.Errorf("mmio: empty input")
	}
	line, rest := nextLine(data)
	header, err := parseHeader(string(line))
	if err != nil {
		return Header{}, 0, 0, 0, nil, err
	}
	for {
		if len(rest) == 0 {
			return Header{}, 0, 0, 0, nil, fmt.Errorf("mmio: missing size line")
		}
		line, rest = nextLine(rest)
		line = trimASCII(line)
		if len(line) == 0 || line[0] == '%' {
			continue
		}
		rows, cols, nnz, ok := parseSizeLine(line)
		if !ok {
			return Header{}, 0, 0, 0, nil, fmt.Errorf("mmio: bad size line %q", line)
		}
		return header, rows, cols, nnz, rest, nil
	}
}

// chunkBoundaries cuts body into up to target newline-aligned byte ranges:
// every boundary except the endpoints sits just after a '\n', so no entry
// line straddles two chunks. Boundaries are strictly increasing; short
// bodies yield fewer chunks.
func chunkBoundaries(body []byte, target int) []int {
	n := len(body)
	if target < 1 {
		target = 1
	}
	bounds := make([]int, 1, target+1)
	for c := 1; c < target; c++ {
		pos := c * n / target
		if pos <= bounds[len(bounds)-1] {
			continue
		}
		for pos < n && body[pos-1] != '\n' {
			pos++
		}
		if pos > bounds[len(bounds)-1] && pos < n {
			bounds = append(bounds, pos)
		}
	}
	return append(bounds, n)
}
