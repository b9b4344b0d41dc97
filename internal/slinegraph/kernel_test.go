package slinegraph

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"slices"
	"testing"

	"nwhy/internal/core"
	"nwhy/internal/gen"
	"nwhy/internal/parallel"
	"nwhy/internal/sparse"
)

func tConstruct(t *testing.T, in Input, s int, o Options) []sparse.Edge {
	t.Helper()
	r, err := Construct(teng, in, s, o)
	if err != nil {
		t.Fatalf("Construct: %v", err)
	}
	return r
}

// TestCrossStrategyDifferential is the kernel's differential property test:
// on generated random hypergraphs, every (counter x schedule x relabel)
// combination must yield the identical canonicalized s-line edge set for s
// in {1, 2, 3}.
func TestCrossStrategyDifferential(t *testing.T) {
	hs := map[string]Input{
		"uniform":  FromHypergraph(gen.Uniform(60, 40, 5, 1)),
		"powerlaw": FromHypergraph(gen.BipartitePowerLaw(50, 35, 4, 1.6, 2)),
	}
	counters := []Counter{AutoCounter, HashmapCounter, DenseCounter, IntersectionCounter}
	schedules := []Schedule{DefaultSchedule, BlockedSchedule, CyclicSchedule, QueueSchedule, AutoSchedule}
	relabels := []sparse.Order{sparse.NoOrder, sparse.Ascending, sparse.Descending}
	for hname, in := range hs {
		for s := 1; s <= 3; s++ {
			want := tConstruct(t, in, s, Options{})
			for _, ctr := range counters {
				for _, sched := range schedules {
					for _, rel := range relabels {
						o := Options{Counter: ctr, Schedule: sched, Relabel: rel}
						got := tConstruct(t, in, s, o)
						if !reflect.DeepEqual(got, want) {
							t.Fatalf("%s s=%d counter=%v schedule=%v relabel=%v: %d edges, want %d",
								hname, s, ctr, sched, rel, len(got), len(want))
						}
					}
				}
			}
		}
	}
}

// TestWeightedParityAcrossOptions is the weighted/unweighted parity test:
// the weighted CSR's structure is the unweighted CSR's for the same options
// and every value is the exact overlap, across every axis combination.
func TestWeightedParityAcrossOptions(t *testing.T) {
	in := FromHypergraph(gen.Uniform(50, 30, 5, 7))
	for _, ctr := range []Counter{HashmapCounter, DenseCounter, IntersectionCounter} {
		for _, sched := range []Schedule{BlockedSchedule, CyclicSchedule, QueueSchedule} {
			for _, rel := range []sparse.Order{sparse.NoOrder, sparse.Descending} {
				o := Options{Counter: ctr, Schedule: sched, Relabel: rel}
				for s := 1; s <= 3; s++ {
					plain, err := ConstructCSR(teng, in, s, o)
					if err != nil {
						t.Fatal(err)
					}
					weighted, err := ConstructWeightedCSR(teng, in, s, o)
					if err != nil {
						t.Fatal(err)
					}
					if !weighted.Equal(plain) || plain.Val != nil {
						t.Fatalf("counter=%v schedule=%v relabel=%v s=%d: weighted structure differs from unweighted", ctr, sched, rel, s)
					}
					for e := 0; e < weighted.NumRows(); e++ {
						for k, f := range weighted.Row(e) {
							if got := weighted.RowVal(e)[k]; got != float64(exactOverlap(in.Incidence(uint32(e)), in.Incidence(f))) {
								t.Fatalf("counter=%v s=%d: pair (%d,%d) overlap %v not exact", ctr, s, e, f, got)
							}
						}
					}
				}
			}
		}
	}
}

// TestConstructCSRMatchesPairsPath: the direct-CSR assembly must produce
// exactly the adjacency the naive oracle's pair list lays out.
func TestConstructCSRMatchesPairsPath(t *testing.T) {
	for _, seed := range []int64{3, 9, 27} {
		h := gen.Uniform(45, 30, 5, seed)
		in := FromHypergraph(h)
		for s := 1; s <= 3; s++ {
			want := lineRows(in.IDSpace(), tNaive(h, s))
			for _, o := range []Options{
				{},
				{Counter: DenseCounter, Schedule: QueueSchedule},
				{Counter: IntersectionCounter, Schedule: CyclicSchedule, Relabel: sparse.Ascending},
			} {
				csr, err := ConstructCSR(teng, in, s, o)
				if err != nil {
					t.Fatal(err)
				}
				if err := csr.Validate(); err != nil {
					t.Fatalf("seed=%d s=%d: %v", seed, s, err)
				}
				for e, row := range want {
					if !slices.Equal(csr.Row(e), row) {
						t.Fatalf("seed=%d s=%d %+v: row %d = %v, the pair list gives %v", seed, s, o, e, csr.Row(e), row)
					}
				}
			}
		}
	}
}

func TestConstructCSREmpty(t *testing.T) {
	in := FromHypergraph(paperHypergraph())
	csr, err := ConstructCSR(teng, in, 5, Options{}) // threshold above any overlap
	if err != nil {
		t.Fatal(err)
	}
	if csr.NumRows() != in.IDSpace() || csr.NumEdges() != 0 {
		t.Fatalf("empty line graph CSR: %d rows, %d edges", csr.NumRows(), csr.NumEdges())
	}
}

// wideInput reports a larger ID space than the input it wraps, to stand on
// either side of denseIDSpaceMax without allocating one.
type wideInput struct {
	Input
	idSpace int
}

func (w wideInput) IDSpace() int { return w.idSpace }

// TestResolveAxes pins the axis resolution: Auto picks the counter from the
// ID space alone, a pinned counter is never overridden, and the Auto
// schedule reads injected Stats in place of scanning.
func TestResolveAxes(t *testing.T) {
	flat := FromHypergraph(overlapHypergraph()) // degrees 4,4,4,2: max < 8 × mean
	hub := [][]uint32{{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15}}
	for v := uint32(0); v < 15; v++ {
		hub = append(hub, []uint32{v})
	}
	skewed := FromHypergraph(core.FromSets(hub, 16)) // max 16 ≥ 8 × mean 1.9
	over := wideInput{flat, denseIDSpaceMax + 1}
	for _, tc := range []struct {
		name  string
		in    Input
		o     Options
		ctr   Counter
		sched Schedule
	}{
		{"auto under the bound", flat, Options{}, DenseCounter, BlockedSchedule},
		{"auto at the bound", wideInput{flat, denseIDSpaceMax}, Options{}, DenseCounter, BlockedSchedule},
		{"auto over the bound", over, Options{}, HashmapCounter, BlockedSchedule},
		{"pinned hashmap under", flat, Options{Counter: HashmapCounter}, HashmapCounter, BlockedSchedule},
		{"pinned intersection under", flat, Options{Counter: IntersectionCounter}, IntersectionCounter, BlockedSchedule},
		{"pinned dense over", over, Options{Counter: DenseCounter}, DenseCounter, BlockedSchedule},
		{"pinned intersection over", over, Options{Counter: IntersectionCounter}, IntersectionCounter, BlockedSchedule},
		{"pinned schedule", flat, Options{Schedule: QueueSchedule}, DenseCounter, QueueSchedule},
		{"auto schedule, scanned flat", flat, Options{Schedule: AutoSchedule}, DenseCounter, BlockedSchedule},
		{"auto schedule, scanned skew", skewed, Options{Schedule: AutoSchedule}, DenseCounter, QueueSchedule},
		{"auto schedule, injected skew beats the scan", flat, Options{Schedule: AutoSchedule, Stats: &DegreeStats{Mean: 2, Max: 16}}, DenseCounter, QueueSchedule},
		{"auto schedule, injected flat beats the scan", skewed, Options{Schedule: AutoSchedule, Stats: &DegreeStats{Mean: 4, Max: 4}}, DenseCounter, BlockedSchedule},
		{"auto schedule, relabel order", flat, Options{Schedule: AutoSchedule, Relabel: sparse.Descending}, DenseCounter, QueueSchedule},
	} {
		ctr, sched := resolveAxes(teng, tc.in, tc.o)
		if ctr != tc.ctr || sched != tc.sched {
			t.Errorf("%s: resolved (%v, %v), want (%v, %v)", tc.name, ctr, sched, tc.ctr, tc.sched)
		}
	}
}

// cancelInKernel is an input that cancels its run's context at the first
// incidence lookup: the view build is then under way, so a construction
// that returns the error stopped in or after it, not before it began.
// (TestAssembleSurfacesCancellation cancels after the kernel pass,
// TestConstructCancelledAtEveryPoll at every poll there is.)
type cancelInKernel struct {
	Input
	cancel context.CancelFunc
}

func (c cancelInKernel) Incidence(e uint32) []uint32 {
	c.cancel()
	return c.Input.Incidence(e)
}

func TestConstructSurfacesCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	in := FromHypergraph(paperHypergraph())
	for _, sched := range []Schedule{BlockedSchedule, CyclicSchedule, QueueSchedule} {
		if _, err := Construct(teng.WithContext(ctx), in, 1, Options{Schedule: sched}); err == nil {
			t.Fatalf("schedule %v: cancelled construct returned nil error", sched)
		}
	}
	if _, err := ConstructCSR(teng.WithContext(ctx), in, 1, Options{}); err == nil {
		t.Fatal("cancelled ConstructCSR returned nil error")
	}

	// Cancelled once the kernel pass is running: the error comes back, no
	// partial CSR does, the run buffers do (to their arenas), and the engine
	// serves the next run.
	eng := parallel.NewEngine(2)
	defer eng.Close()
	big := FromHypergraph(gen.Uniform(400, 200, 5, 11))
	for _, construct := range []func(*parallel.Engine, Input, int, Options) (*sparse.CSR, error){ConstructCSR, ConstructWeightedCSR} {
		ctx, cancel = context.WithCancel(context.Background())
		csr, err := construct(eng.WithContext(ctx), cancelInKernel{big, cancel}, 1, Options{})
		if !errors.Is(err, context.Canceled) || csr != nil {
			t.Fatalf("construction cancelled mid-run: csr=%v err=%v, want nil and Canceled", csr, err)
		}
		got, err := construct(eng, big, 1, Options{})
		if err != nil {
			t.Fatalf("engine not reusable after a cancelled run: %v", err)
		}
		if !slices.Equal(got.UpperTriangle(), tNaive(gen.Uniform(400, 200, 5, 11), 1)) {
			t.Fatal("run after a cancelled one differs from the oracle")
		}
	}
}

func TestAxisStrings(t *testing.T) {
	for want, got := range map[string]fmt.Stringer{
		"auto":         AutoCounter,
		"hashmap":      HashmapCounter,
		"dense":        DenseCounter,
		"intersection": IntersectionCounter,
		"default":      DefaultSchedule,
		"blocked":      BlockedSchedule,
		"cyclic":       CyclicSchedule,
		"queue":        QueueSchedule,
	} {
		if got.String() != want {
			t.Fatalf("String() = %q, want %q", got.String(), want)
		}
	}
}
