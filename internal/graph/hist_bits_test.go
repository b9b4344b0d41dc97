package graph

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"nwhy/internal/parallel"
	"nwhy/internal/parallel/paralleltest"
	"nwhy/internal/sparse"
)

// sameHistogramsAsSweep runs levelHistograms with the sweep pinned on the
// first engine, of one worker, and under the matrix pinned and the rule on
// each engine: every source's histogram and the three scores built on it
// must be the sweep's, bit for bit.
func sameHistogramsAsSweep(engines []*parallel.Engine, g *Graph) error {
	want, _ := histogramsWith(engines[0], g, kernelChoices["sparse"])
	wantClo, wantHarmonic, wantEcc := centralitiesWith(engines[0], g, kernelChoices["sparse"])
	for _, eng := range engines {
		for _, kernel := range []string{"matrix", "rule"} {
			got, _ := histogramsWith(eng, g, kernelChoices[kernel])
			clo, harmonic, ecc := centralitiesWith(eng, g, kernelChoices[kernel])
			for v := range want {
				if !slices.Equal(got[v], want[v]) {
					return fmt.Errorf("%s kernel, %d workers: hist[%d] = %v, the sweep's %v", kernel, eng.NumWorkers(), v, got[v], want[v])
				}
				if clo[v] != wantClo[v] || harmonic[v] != wantHarmonic[v] || ecc[v] != wantEcc[v] {
					return fmt.Errorf("%s kernel, %d workers: scores of %d differ from the sweep's", kernel, eng.NumWorkers(), v)
				}
			}
		}
	}
	return nil
}

// FuzzLevelHistogramsMatchSweep plants dense blocks and path tails in a
// small random graph (self-loops and isolated vertices included) and holds
// the matrix kernel and the rule to the sweep's histograms.
func FuzzLevelHistogramsMatchSweep(f *testing.F) {
	f.Add(int64(1), uint8(40), uint8(30), uint8(20), uint8(9), uint8(128))
	f.Add(int64(2), uint8(70), uint8(0), uint8(66), uint8(30), uint8(200))
	f.Add(int64(3), uint8(5), uint8(4), uint8(0), uint8(0), uint8(0))
	f.Add(int64(-4), uint8(130), uint8(90), uint8(64), uint8(64), uint8(60))
	f.Add(int64(5), uint8(1), uint8(3), uint8(1), uint8(0), uint8(255))
	f.Add(int64(6), uint8(128), uint8(10), uint8(128), uint8(0), uint8(255))
	engines := oneTwoThreeWorkers(f)
	f.Fuzz(func(t *testing.T, seed int64, nRaw, mRaw, blockRaw, tailRaw, pRaw uint8) {
		n := 1 + int(nRaw)%140
		rng := rand.New(rand.NewSource(seed))
		el := sparse.NewEdgeList(n)
		for i := int(mRaw); i > 0; i-- {
			el.Add(uint32(rng.Intn(n)), uint32(rng.Intn(n)))
		}
		ids := make([]uint32, n)
		for i, v := range rng.Perm(n) {
			ids[i] = uint32(v)
		}
		block := int(blockRaw) % (n + 1)
		denseBlob(el, rng, ids[:block], float64(pRaw)/255)
		for i := block; i < min(n, block+int(tailRaw)); i++ {
			el.Add(ids[max(i-1, 0)], ids[i])
		}
		if err := sameHistogramsAsSweep(engines, FromEdgeList(el, true)); err != nil {
			t.Fatalf("seed=%d n=%d m=%d block=%d tail=%d p=%d: %v", seed, n, mRaw, block, tailRaw, pRaw, err)
		}
	})
}

// TestLevelHistogramsCancelledAtEveryPoll cancels the engine at each of the
// level histograms' polls in turn, on a graph that is all matrix and on one
// that mixes both kernels: a cancelled call reports the engine's error, both
// kernels' states go back to the arenas as the next call expects them, and
// the next call is exact.
func TestLevelHistogramsCancelledAtEveryPoll(t *testing.T) {
	for name, g := range map[string]*Graph{"dense": blobWithTail(60, 12, 0.4, 7), "mixed": mixedGraph(8)} {
		eng := parallel.NewEngine(2)
		n := g.NumVertices()
		paralleltest.CancelAtEveryPoll(t, eng, func(e *parallel.Engine) ([][]int64, error) {
			got, _ := histogramsWith(e, g, matrixPays)
			checkArenaScratchClean(t, eng)
			if err := e.Err(); err != nil {
				return nil, err
			}
			return got, nil
		}, func(got [][]int64) error {
			for src := 0; src < n; src++ {
				if want := levelHistogram(g, src); g.Degree(src) > 0 && !slices.Equal(got[src], want) {
					return fmt.Errorf("%s: hist[%d] = %v, want %v", name, src, got[src], want)
				}
			}
			return nil
		})
		states := map[string]int{}
		for _, key := range []string{sweepScratchKey, bitLevelStateKey} {
			forEachStashed(eng, key, func(any) { states[key]++ })
		}
		if states[bitLevelStateKey] == 0 || name == "mixed" && states[sweepScratchKey] == 0 {
			t.Fatalf("%s: kernel states found in the arenas: %v", name, states)
		}
		eng.Close()
	}
}

// TestLevelHistogramsAllocatePerWorkerNotPerSource pins the allocation
// shape of the level histograms under both kernels: the plan, its matrices,
// the two source lists and the output; nothing per source. One worker, so
// the first call leaves the only state in the arena. What the engine
// allocates to schedule a loop is measured and set aside.
func TestLevelHistogramsAllocatePerWorkerNotPerSource(t *testing.T) {
	eng := parallel.NewEngine(1)
	defer eng.Close()
	const n = 1000
	grains := allocatedBytes(func() { eng.For(parallel.BlockedGrain(0, n/64+1, 1), func(int, int, int) {}) })
	dense := blobWithTail(n, 0, 0.1, 11)
	matrix := planComponents(dense, matrixPays).matrix
	if len(matrix) != 1 || matrix[0] == nil {
		t.Fatal("the dense graph is not one matrix component")
	}
	for name, g := range map[string]*Graph{"sweep": randomGraph(n, 4000, 11), "bit matrix": dense} {
		bound := uint64(64*n + 16<<10) // the O(n) arrays
		if name == "bit matrix" {
			bound += uint64(8 * len(matrix[0].rows))
		}
		HarmonicClosenessCentrality(eng, g) // the worker states
		if got := allocatedBytes(func() { HarmonicClosenessCentrality(eng, g) }); got >= grains+bound {
			t.Fatalf("%s: HarmonicClosenessCentrality on %d vertices allocated %d bytes, want < %d beside the %d of scheduling", name, n, got, bound, grains)
		}
	}
}
