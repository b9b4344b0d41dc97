package graph

import (
	"math/bits"
	"slices"
)

// bitBrandesState is one worker's scratch for Brandes on a bitMatrix,
// reused across sources, components and calls. Nothing in it has to be
// clean between sources: every word and slot is written before it is read.
type bitBrandesState struct {
	sigma   []float64 // number of shortest paths from the source
	coef    []float64 // (1 + dependency) / sigma
	visited []uint64  // the levels so far, the source and the padding bits past nc
	levels  []uint64  // slab of BFS levels as bitsets: level d >= 1 at [(d-1)*words, d*words)

	// Work since the state was made, the counts BenchmarkBetweenness reports:
	// words read from matrix rows, and DAG arcs enumerated bit by bit.
	wordOps, dagArcs int
}

func (st *bitBrandesState) ensure(nc, words int) {
	if len(st.sigma) < nc {
		st.sigma, st.coef = make([]float64, nc), make([]float64, nc)
	}
	if len(st.visited) < words {
		st.visited = make([]uint64, words)
	}
}

// accumulate runs one Brandes pass from compact ID src over m, adding each
// vertex's dependency into score at its vertex ID. It is the pass of
// brandesState.accumulate with the arc walks replaced by word operations:
// a level is a bitset, row(v) & level(d-1) holds v's BFS predecessors and
// row(v) & level(d+1) its successors, so only the arcs of the BFS DAG are
// enumerated and an arc inside a level or back to a shallower one costs
// 1/64 of an AND. The gather meets a vertex's successors in ascending ID
// like the CSR row does, so the dependencies carry the same bits; sigma is
// summed in ID order, not queue order, which is the same number while path
// counts stay below 2^53.
func (st *bitBrandesState) accumulate(m *bitMatrix, src int, score []float64) {
	W, nc := m.words, len(m.ids)
	sigma, coef, visited := st.sigma, st.coef, st.visited[:W]
	self := uint64(1) << (src & 63)
	rowsRead, arcs := 1, 0

	// Level 1 is the source's row without a self-loop.
	levels := append(st.levels[:0], m.row(src)...)
	levels[src>>6] &^= self
	copy(visited, levels)
	visited[src>>6] |= self
	if nc&63 != 0 {
		visited[W-1] |= ^uint64(0) << (nc & 63)
	}
	frontier := 0
	for k, x := range levels {
		for ; x != 0; x &= x - 1 {
			sigma[k<<6|bits.TrailingZeros64(x)] = 1
			frontier++
		}
	}

	depth := 1 // complete levels in the slab
	for unvisited := nc - 1 - frontier; unvisited > 0; depth++ {
		levels = slices.Grow(levels, W)[:(depth+1)*W]
		cur, next := levels[(depth-1)*W:depth*W], levels[depth*W:]
		// Candidates for the next level. Top-down, the unvisited neighbors
		// of the frontier, costs a row per frontier vertex and then a row per
		// vertex found; bottom-up, every unvisited vertex, a row per vertex
		// tried.
		if 2*frontier < unvisited {
			clear(next)
			for k, x := range cur {
				for ; x != 0; x &= x - 1 {
					for j, w := range m.row(k<<6 | bits.TrailingZeros64(x)) {
						next[j] |= w
					}
					rowsRead++
				}
			}
			for j := range next {
				next[j] &^= visited[j]
			}
		} else {
			for j := range next {
				next[j] = ^visited[j]
			}
		}
		// A candidate with a predecessor in cur is on the level; its sigma
		// sums theirs, which behind level 1 (all ones) is a popcount.
		frontier = 0
		for k, x := range next {
			for ; x != 0; x &= x - 1 {
				b := bits.TrailingZeros64(x)
				v := k<<6 | b
				s := 0.0
				rowsRead++
				if depth == 1 {
					c := 0
					for j, w := range m.row(v) {
						c += bits.OnesCount64(w & cur[j])
					}
					s = float64(c)
				} else {
					for j, w := range m.row(v) {
						for y := w & cur[j]; y != 0; y &= y - 1 {
							s += sigma[j<<6|bits.TrailingZeros64(y)]
							arcs++
						}
					}
				}
				if s == 0 {
					next[k] &^= 1 << b
					continue
				}
				sigma[v] = s
				frontier++
			}
		}
		if frontier == 0 { // only an asymmetric adjacency strands a vertex
			levels = levels[:depth*W]
			break
		}
		for j := range visited {
			visited[j] |= next[j]
		}
		unvisited -= frontier
	}
	st.levels = levels

	// Backward, deepest level first: it has no successors.
	for k, x := range levels[(depth-1)*W:] {
		for ; x != 0; x &= x - 1 {
			v := k<<6 | bits.TrailingZeros64(x)
			coef[v] = 1 / sigma[v]
		}
	}
	for d := depth - 1; d >= 1; d-- {
		level, deeper := levels[(d-1)*W:d*W], levels[d*W:(d+1)*W]
		for k, x := range level {
			for ; x != 0; x &= x - 1 {
				v := k<<6 | bits.TrailingZeros64(x)
				sum := 0.0
				rowsRead++
				for j, w := range m.row(v) {
					for y := w & deeper[j]; y != 0; y &= y - 1 {
						sum += coef[j<<6|bits.TrailingZeros64(y)]
						arcs++
					}
				}
				delta := sigma[v] * sum
				coef[v] = (1 + delta) / sigma[v]
				score[m.ids[v]] += delta
			}
		}
	}
	st.wordOps += rowsRead * W
	st.dagArcs += arcs
}
