package server

import (
	"context"
	"fmt"
	"math"
	"sync"
	"testing"
	"time"

	"nwhy"
	"nwhy/internal/gen"
	"nwhy/internal/sparse"
)

// stressGraph builds the stress-test hypergraph deterministically so the
// serial baseline and the served copies are the same input.
func stressGraph() *nwhy.NWHypergraph {
	return nwhy.Wrap(gen.BipartitePowerLaw(150, 120, 1200, 1.6, 7))
}

// baseline is the serial ground truth for one s value, computed on a
// single-worker engine before the storm starts.
type baseline struct {
	pairs       []sparse.Edge
	labels      []uint32
	closeness   []float64
	harmonic    []float64
	ecc         []float64
	betweenness []float64
}

func equalPairs(a, b []sparse.Edge) error {
	if len(a) != len(b) {
		return fmt.Errorf("pair count %d != %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			return fmt.Errorf("pair[%d] = %v != %v", i, a[i], b[i])
		}
	}
	return nil
}

func equalU32(name string, a, b []uint32) error {
	if len(a) != len(b) {
		return fmt.Errorf("%s length %d != %d", name, len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			return fmt.Errorf("%s[%d] = %d != %d", name, i, a[i], b[i])
		}
	}
	return nil
}

// equalF64 demands bit-identical floats — the deterministic centralities
// write each slot exactly once, so any divergence is a real race.
func equalF64(name string, a, b []float64) error {
	if len(a) != len(b) {
		return fmt.Errorf("%s length %d != %d", name, len(a), len(b))
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return fmt.Errorf("%s[%d] = %v != %v", name, i, a[i], b[i])
		}
	}
	return nil
}

// closeF64 allows relative float drift — betweenness merges per-worker
// partials in steal order, so it is correct but not bit-stable.
func closeF64(name string, a, b []float64, tol float64) error {
	if len(a) != len(b) {
		return fmt.Errorf("%s length %d != %d", name, len(a), len(b))
	}
	for i := range a {
		diff := math.Abs(a[i] - b[i])
		scale := math.Max(1, math.Max(math.Abs(a[i]), math.Abs(b[i])))
		if diff/scale > tol {
			return fmt.Errorf("%s[%d] = %v vs %v (rel diff %g)", name, i, a[i], b[i], diff/scale)
		}
	}
	return nil
}

// TestConcurrentReadersMatchSerial hammers one registry dataset from many
// goroutines with the full mixed query surface — s-line construction (with
// a cache small enough to force constant eviction and rebuild), s-CC from
// the maintained views, deterministic and float-merged centralities, and raw
// Pairs() reads on a shared cached handle — and asserts every deterministic
// result is bit-identical to a serial single-worker run. Run it under
// -race: the assertions catch value races, the detector catches the rest.
func TestConcurrentReadersMatchSerial(t *testing.T) {
	sValues := []int{1, 2, 3}

	// Serial ground truth on one worker.
	serialEng := nwhy.NewEngine(1)
	defer serialEng.Close()
	serial := stressGraph().WithEngine(serialEng)
	base := map[int]*baseline{}
	for _, s := range sValues {
		lg := serial.SLineGraph(s, true)
		labels := unprunedSCC(t, serial, s)
		base[s] = &baseline{
			pairs:       lg.Pairs(),
			labels:      labels,
			closeness:   lg.SClosenessCentrality(),
			harmonic:    lg.SHarmonicClosenessCentrality(),
			ecc:         lg.SEccentricity(),
			betweenness: lg.SBetweennessCentrality(false),
		}
	}

	// The served copy: parallel engine, deliberately tiny cache so the
	// three s values evict each other and constructions keep re-running
	// concurrently with reads of the surviving entries.
	eng := nwhy.NewEngine(4)
	defer eng.Close()
	reg := NewRegistry()
	reg.Add("stress", stressGraph().WithEngine(eng), "")
	srv, err := New(Config{
		Engine: eng, CacheEntries: 2,
		MaxInFlight: 64, MaxQueue: 256, QueueWait: time.Minute,
	}, reg)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	// One shared handle whose lazy Pairs() extraction the goroutines race.
	sharedLg, _, _, err := srv.slineGraph(ctx, SLineRequest{Dataset: "stress", S: sValues[0], Edges: true})
	if err != nil {
		t.Fatal(err)
	}

	const goroutines = 8
	const iters = 10
	errCh := make(chan error, goroutines*iters)
	var wg sync.WaitGroup
	for id := 0; id < goroutines; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for it := 0; it < iters; it++ {
				s := sValues[(id+it)%len(sValues)]
				b := base[s]
				var err error
				switch (id + it) % 6 {
				case 0:
					lg, _, _, gerr := srv.slineGraph(ctx, SLineRequest{Dataset: "stress", S: s, Edges: true})
					if gerr != nil {
						err = gerr
						break
					}
					err = equalPairs(b.pairs, lg.Pairs())
				case 1, 2:
					res, gerr := srv.SComponents(ctx, SCCRequest{Dataset: "stress", S: s, WithLabels: true})
					if gerr != nil {
						err = gerr
						break
					}
					err = equalU32("s-component labels", b.labels, res.Labels)
				case 3:
					res, gerr := srv.Centrality(ctx, CentralityRequest{Dataset: "stress", S: s, Kind: CentralityHarmonic})
					if gerr != nil {
						err = gerr
						break
					}
					if err = equalF64("harmonic", b.harmonic, res.Scores); err == nil {
						var ecc CentralityResult
						if ecc, err = srv.Centrality(ctx, CentralityRequest{Dataset: "stress", S: s, Kind: CentralityEccentricity}); err == nil {
							err = equalF64("eccentricity", b.ecc, ecc.Scores)
						}
					}
				case 4:
					res, gerr := srv.Centrality(ctx, CentralityRequest{Dataset: "stress", S: s, Kind: CentralityCloseness})
					if gerr != nil {
						err = gerr
						break
					}
					err = equalF64("closeness", b.closeness, res.Scores)
				default:
					res, gerr := srv.Centrality(ctx, CentralityRequest{Dataset: "stress", S: s, Kind: CentralityBetweenness})
					if gerr != nil {
						err = gerr
						break
					}
					err = closeF64("betweenness", b.betweenness, res.Scores, 1e-9)
				}
				if err == nil {
					// Every iteration also races the shared handle's lazy
					// pair extraction.
					err = equalPairs(base[sValues[0]].pairs, sharedLg.Pairs())
				}
				if err != nil {
					errCh <- fmt.Errorf("goroutine %d iter %d (s=%d): %w", id, it, s, err)
					return
				}
			}
		}(id)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}

	hits, misses, _ := srv.Cache().Stats()
	if misses < int64(len(sValues)) {
		t.Errorf("cache misses = %d, want >= %d (evictions should force rebuilds)", misses, len(sValues))
	}
	t.Logf("cache after storm: %d hits / %d misses", hits, misses)
}
