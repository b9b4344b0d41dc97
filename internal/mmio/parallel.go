package mmio

import (
	"bytes"
	"fmt"
	"os"

	"nwhy/internal/parallel"
	"nwhy/internal/sparse"
)

// ReadBiEdgeListParallel parses data — a whole Matrix Market file in memory
// — with engine-parallel chunked scanning (readChunks): the same list, or for
// malformed input the same error, as ReadBiEdgeList. Cancellation is observed
// at chunk boundaries; an aborted parse returns eng.Err() and no list.
func ReadBiEdgeListParallel(eng *parallel.Engine, data []byte) (*sparse.BiEdgeList, error) {
	return readChunks(data, eng.NumWorkers()*4, func(n int, each func(c int)) error {
		eng.ForEach(n, each) // n is at most four chunks a worker: the automatic grain is one chunk
		return eng.Err()
	})
}

// GraphReaderParallel reads path into memory and parses it with
// ReadBiEdgeListParallel: the paper's graph_reader(mm_file) on an engine (a
// one-worker engine parses single-threaded).
func GraphReaderParallel(eng *parallel.Engine, path string) (*sparse.BiEdgeList, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return ReadBiEdgeListParallel(eng, data)
}

// readChunks is the one assembly under both readers. The entry body is cut
// into up to target newline-aligned chunks and phase runs twice over them —
// serially for ReadBiEdgeList, on an engine for ReadBiEdgeListParallel, its
// error ending the read. The first pass counts each chunk's lines: an upper
// bound on its entries that the size line has no say in, so the pair array
// (and the weights) are allocated once, from what the body can hold, and
// every chunk owns a window of them. The second pass scans each chunk
// straight into its window (scanEntries). Only where comment or blank lines
// left a window short are the later entries moved down, in place; the usual
// file pays no copy. The earliest bad line wins, and a bad line is reported
// before a count mismatch.
func readChunks(data []byte, target int, phase func(n int, each func(c int)) error) (*sparse.BiEdgeList, error) {
	header, rows, cols, nnz, body, err := readPreambleBytes(data)
	if err != nil {
		return nil, err
	}
	if header.Symmetry != "general" {
		return nil, fmt.Errorf("mmio: hypergraph incidence must be general, got %s", header.Symmetry)
	}
	weighted := header.Field != "pattern"
	bounds := chunkBoundaries(body, target)
	nchunks := len(bounds) - 1
	win := make([]int, nchunks+1) // chunk c's window is [win[c], win[c+1])
	err = phase(nchunks, func(c int) {
		chunk := body[bounds[c]:bounds[c+1]]
		win[c+1] = bytes.Count(chunk, []byte{'\n'})
		if n := len(chunk); n > 0 && chunk[n-1] != '\n' {
			win[c+1]++ // the file's last line, unterminated
		}
	})
	if err != nil {
		return nil, err
	}
	for c := 0; c < nchunks; c++ {
		win[c+1] += win[c]
	}
	bel := sparse.NewBiEdgeList(rows, cols)
	bel.Edges = make([]sparse.Edge, win[nchunks])
	if weighted {
		bel.Weights = make([]float64, win[nchunks])
	}
	found, bad := make([]int, nchunks), make([]error, nchunks)
	err = phase(nchunks, func(c int) {
		var weights []float64
		if weighted {
			weights = bel.Weights[win[c]:win[c+1]]
		}
		found[c], bad[c] = scanEntries(body[bounds[c]:bounds[c+1]], weighted, rows, cols, bel.Edges[win[c]:win[c+1]], weights)
	})
	if err != nil {
		return nil, err
	}
	total := 0
	for c, n := range found {
		if bad[c] != nil {
			return nil, bad[c]
		}
		if total < win[c] {
			copy(bel.Edges[total:], bel.Edges[win[c]:win[c]+n])
			if weighted {
				copy(bel.Weights[total:], bel.Weights[win[c]:win[c]+n])
			}
		}
		total += n
	}
	if total != nnz {
		return nil, fmt.Errorf("mmio: header declared %d entries, found %d", nnz, total)
	}
	bel.Edges = bel.Edges[:total]
	if weighted {
		bel.Weights = bel.Weights[:total]
	}
	return bel, nil
}

// readPreambleBytes consumes the banner, comments, and size line of an
// in-memory file and returns the remaining entry body.
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
