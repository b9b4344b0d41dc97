package slinegraph

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"slices"
	"testing"

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
// on generated random hypergraphs, every counter must yield the identical
// canonicalized s-line edge set for s in {1, 2, 3}.
func TestCrossStrategyDifferential(t *testing.T) {
	hs := map[string]Input{
		"uniform":  FromHypergraph(gen.Uniform(60, 40, 5, 1)),
		"powerlaw": FromHypergraph(gen.BipartitePowerLaw(50, 35, 4, 1.6, 2)),
	}
	for hname, in := range hs {
		for s := 1; s <= 3; s++ {
			want := tConstruct(t, in, s, Options{})
			for _, ctr := range allCounters {
				if got := tConstruct(t, in, s, Options{Counter: ctr}); !reflect.DeepEqual(got, want) {
					t.Fatalf("%s s=%d counter=%v: %d edges, want %d", hname, s, ctr, len(got), len(want))
				}
			}
		}
	}
}

// TestWeightedParityAcrossOptions is the weighted/unweighted parity test:
// the weighted CSR's structure is the unweighted CSR's for the same options
// and every value is the exact overlap, for every pinned counter.
func TestWeightedParityAcrossOptions(t *testing.T) {
	in := FromHypergraph(gen.Uniform(50, 30, 5, 7))
	for _, ctr := range []Counter{HashmapCounter, DenseCounter, IntersectionCounter} {
		o := Options{Counter: ctr}
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
				t.Fatalf("counter=%v s=%d: weighted structure differs from unweighted", ctr, s)
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
				{Counter: DenseCounter},
				{Counter: IntersectionCounter},
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

// TestResolveAxes pins the counter resolution: Auto picks the counter from
// the ID space alone, and a pinned counter is never overridden.
func TestResolveAxes(t *testing.T) {
	flat := FromHypergraph(overlapHypergraph())
	over := wideInput{flat, denseIDSpaceMax + 1}
	for _, tc := range []struct {
		name string
		in   Input
		o    Options
		ctr  Counter
	}{
		{"auto under the bound", flat, Options{}, DenseCounter},
		{"auto at the bound", wideInput{flat, denseIDSpaceMax}, Options{}, DenseCounter},
		{"auto over the bound", over, Options{}, HashmapCounter},
		{"pinned hashmap under", flat, Options{Counter: HashmapCounter}, HashmapCounter},
		{"pinned intersection under", flat, Options{Counter: IntersectionCounter}, IntersectionCounter},
		{"pinned dense over", over, Options{Counter: DenseCounter}, DenseCounter},
		{"pinned intersection over", over, Options{Counter: IntersectionCounter}, IntersectionCounter},
	} {
		if ctr := resolveCounter(tc.in, tc.o); ctr != tc.ctr {
			t.Errorf("%s: resolved %v, want %v", tc.name, ctr, tc.ctr)
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
	if _, err := Construct(teng.WithContext(ctx), in, 1, Options{}); err == nil {
		t.Fatal("cancelled construct returned nil error")
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
	} {
		if got.String() != want {
			t.Fatalf("String() = %q, want %q", got.String(), want)
		}
	}
}
