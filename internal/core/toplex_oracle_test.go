package core

import (
	"fmt"
	"slices"
	"testing"

	"nwhy/internal/parallel"
	"nwhy/internal/parallel/paralleltest"
)

// bruteCover is the documented (deg, −ID) rule by pairwise subset checks:
// the smallest-ID f ⊇ e of larger degree, or of equal degree and smaller
// ID; e itself when there is none.
func bruteCover(h *Hypergraph) []uint32 {
	cover := make([]uint32, h.NumEdges())
	for e := range cover {
		cover[e] = uint32(e)
		for f := range cover {
			de, df := h.EdgeDegree(e), h.EdgeDegree(f)
			if f != e && (df > de || (df == de && f < e)) && subsetSorted(h.EdgeIncidence(e), h.EdgeIncidence(f)) {
				cover[e] = uint32(f)
				break
			}
		}
	}
	return cover
}

// fuzzSets decodes a script of (op, mask) byte pairs into hyperedges over
// eight hypernodes of a ten-node space (so hypernodes 8 and 9, and any bit
// no mask sets, stay isolated): a fresh mask (0 is an empty hyperedge, one
// bit a singleton), a subset or a superset of the previous hyperedge
// (nested chains), or a copy of an earlier one (duplicates).
func fuzzSets(script []byte) [][]uint32 {
	var masks []byte
	for i := 0; i+1 < len(script) && len(masks) < 40; i += 2 {
		m := script[i+1]
		if n := len(masks); n > 0 {
			switch script[i] % 4 {
			case 1:
				m &= masks[n-1]
			case 2:
				m |= masks[n-1]
			case 3:
				m = masks[int(m)%n]
			}
		}
		masks = append(masks, m)
	}
	sets := make([][]uint32, len(masks))
	for e, m := range masks {
		for v := uint32(0); v < 8; v++ {
			if m&(1<<v) != 0 {
				sets[e] = append(sets[e], v)
			}
		}
	}
	return sets
}

// FuzzToplexCover pins the pivot scan to brute force on small adversarial
// incidences, at one, two and three workers.
func FuzzToplexCover(f *testing.F) {
	f.Add([]byte{0, 0x07, 1, 0x03, 1, 0x01, 3, 0})          // chain {0,1,2} ⊃ {0,1} ⊃ {0}, then a copy of the first
	f.Add([]byte{0, 0, 0, 0, 0, 0x10})                      // two empty hyperedges before a singleton
	f.Add([]byte{0, 0, 0, 0})                               // nothing but empty hyperedges
	f.Add([]byte{0, 0x0f, 3, 0, 3, 0, 2, 0x30, 1, 0x0f})    // duplicates, then a superset and a subset of them
	f.Add([]byte{0, 0xff, 0, 0x81, 0, 0x18, 0, 0x99, 1, 8}) // one hyperedge containing all the others
	var engs []*parallel.Engine
	for workers := 1; workers <= 3; workers++ {
		engs = append(engs, parallel.NewEngine(workers))
	}
	f.Cleanup(func() {
		for _, eng := range engs {
			eng.Close()
		}
	})
	f.Fuzz(func(t *testing.T, script []byte) {
		h := FromSets(fuzzSets(script), 10)
		wantTops, wantCover := ToplexesBruteForce(h), bruteCover(h)
		for _, eng := range engs {
			tops, cover := ToplexCover(eng, h)
			if !slices.Equal(tops, wantTops) || !slices.Equal(cover, wantCover) {
				t.Fatalf("%d workers: tops %v cover %v, want %v %v", eng.NumWorkers(), tops, cover, wantTops, wantCover)
			}
		}
	})
}

// TestToplexCoverCancelledAtEveryPoll cancels the scan at each of its grain
// polls in turn: a cancelled engine reports its error (the partial cover is
// the caller's to drop, as the facade memo does), a run that finishes
// returns the whole cover, and the engine stays reusable.
func TestToplexCoverCancelledAtEveryPoll(t *testing.T) {
	type result struct{ tops, cover []uint32 }
	h := randomHypergraph(300, 40, 6, 11)
	wantTops, wantCover := ToplexesBruteForce(h), bruteCover(h)
	for workers := 1; workers <= 3; workers++ {
		eng := parallel.NewEngine(workers)
		paralleltest.CancelAtEveryPoll(t, eng, func(e *parallel.Engine) (result, error) {
			tops, cover := ToplexCover(e, h)
			if err := e.Err(); err != nil {
				return result{}, err
			}
			return result{tops, cover}, nil
		}, func(r result) error {
			if !slices.Equal(r.tops, wantTops) || !slices.Equal(r.cover, wantCover) {
				return fmt.Errorf("a different cover: %d toplexes, want %d", len(r.tops), len(wantTops))
			}
			return nil
		})
		eng.Close()
	}
}
