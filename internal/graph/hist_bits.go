package graph

import "math/bits"

// bitLevelState is one worker's scratch for level histograms on a
// bitMatrix, reused across sources, components and calls. Nothing in it has
// to be clean between sources: every word is written before it is read.
type bitLevelState struct {
	visited, cur, next []uint64 // the levels so far with the padding bits past nc; level d; level d+1
	hist               []int64

	// Matrix words read since the state was made, the count
	// BenchmarkLevelHistograms reports.
	wordOps int
}

func (st *bitLevelState) ensure(words int) {
	if len(st.visited) < words {
		st.visited, st.cur, st.next = make([]uint64, words), make([]uint64, words), make([]uint64, words)
	}
}

// levels returns the level histogram of compact ID src over m (valid until
// the next call): hist[d] is the popcount of level d. Level 1 is the
// source's row without a self-loop; the next level is the OR of the
// frontier's rows while the frontier is under half the unvisited vertices
// (top-down), else every unvisited vertex with a row word meeting the
// frontier (bottom-up, stopping at the first such word). No distance is
// kept: a level is a bitset and only its popcount is recorded.
func (st *bitLevelState) levels(m *bitMatrix, src int) []int64 {
	W, nc := m.words, len(m.ids)
	visited, cur, next := st.visited[:W], st.cur[:W], st.next[:W]
	self := uint64(1) << (src & 63)
	copy(cur, m.row(src))
	cur[src>>6] &^= self
	frontier := 0
	for j, w := range cur {
		visited[j] = w
		frontier += bits.OnesCount64(w)
	}
	visited[src>>6] |= self
	if nc&63 != 0 {
		visited[W-1] |= ^uint64(0) << (nc & 63)
	}
	words := W

	hist := append(st.hist[:0], 1)
	for unvisited := nc - 1 - frontier; frontier > 0; unvisited -= frontier {
		hist = append(hist, int64(frontier))
		if unvisited == 0 {
			break
		}
		if 2*frontier < unvisited {
			clear(next)
			for k, x := range cur {
				for ; x != 0; x &= x - 1 {
					for j, w := range m.row(k<<6 | bits.TrailingZeros64(x)) {
						next[j] |= w
					}
					words += W
				}
			}
			frontier = 0
			for j, w := range next {
				w &^= visited[j]
				next[j] = w
				visited[j] |= w
				frontier += bits.OnesCount64(w)
			}
		} else {
			frontier = 0
			for k, x := range visited {
				found := uint64(0)
				for x = ^x; x != 0; x &= x - 1 {
					b := bits.TrailingZeros64(x)
					read := W
					for j, w := range m.row(k<<6 | b) {
						if w&cur[j] != 0 {
							found |= 1 << b
							read = j + 1
							break
						}
					}
					words += read
				}
				next[k] = found
				visited[k] |= found
				frontier += bits.OnesCount64(found)
			}
		}
		cur, next = next, cur
	}
	st.hist = hist
	st.wordOps += words
	return hist
}
