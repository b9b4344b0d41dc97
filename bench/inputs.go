package main

import (
	"bufio"
	"fmt"
	"math/rand"
	"os"
	"strconv"
)

// structureSeed fixes the generated structure of every workload. The
// structure — sizes, degree skew, overlap counts, component shape — is part
// of a workload's definition, like the named inputs of the paper's Table I:
// generator seeds move the s-line edge count of the power-law input by ±2 %
// and the betweenness time of the community input by ±10 %, which would
// drown the bounds. --seed instead drives everything the program could
// otherwise memorize: a random relabeling of hyperedge and hypernode IDs
// (so files, labels and answers differ byte for byte), the query pairs, the
// BFS sources and the request schedules.
const structureSeed = 20220530

// relabel applies random permutations to the hyperedge and hypernode IDs.
func relabel(inc incidence, rng *rand.Rand) incidence {
	edgePerm, nodePerm := rng.Perm(len(inc.edges)), rng.Perm(inc.numNodes)
	out := incidence{numNodes: inc.numNodes, edges: make([][]uint32, len(inc.edges))}
	for e, members := range inc.edges {
		m := make([]uint32, len(members))
		for i, v := range members {
			m[i] = uint32(nodePerm[v])
		}
		out.edges[edgePerm[e]] = m
	}
	return out
}

// writeMTX writes inc as a Matrix Market incidence file (rows are
// hyperedges, columns hypernodes, 1-based) and returns its size in bytes.
func writeMTX(path string, inc incidence) (int64, error) {
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	nnz := 0
	for _, m := range inc.edges {
		nnz += len(m)
	}
	w := bufio.NewWriterSize(f, 1<<20)
	fmt.Fprintf(w, "%%%%MatrixMarket matrix coordinate pattern general\n%d %d %d\n", len(inc.edges), inc.numNodes, nnz)
	var line []byte
	for e, members := range inc.edges {
		for _, v := range members {
			line = strconv.AppendInt(line[:0], int64(e)+1, 10)
			line = append(line, ' ')
			line = strconv.AppendInt(line, int64(v)+1, 10)
			line = append(line, '\n')
			w.Write(line) // bufio keeps the first error for Flush
		}
	}
	if err := w.Flush(); err != nil {
		return 0, err
	}
	st, err := f.Stat()
	if err != nil {
		return 0, err
	}
	return st.Size(), f.Close()
}

// largestComponent returns the members of the most populous component of a
// label vector (ties: the smaller label).
func largestComponent(labels []uint32) []int {
	size := map[uint32]int{}
	best := uint32(0)
	for _, l := range labels {
		size[l]++
	}
	for l, n := range size {
		if n > size[best] || (n == size[best] && l < best) {
			best = l
		}
	}
	var members []int
	for e, l := range labels {
		if l == best {
			members = append(members, e)
		}
	}
	return members
}
