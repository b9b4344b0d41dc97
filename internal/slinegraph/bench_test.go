package slinegraph

import (
	"math/rand"
	"testing"

	"nwhy/internal/core"
	"nwhy/internal/gen"
	"nwhy/internal/parallel"
)

// relabelled is h under a seeded permutation of its hyperedge and hypernode
// IDs, as bench/ relabels every input it generates.
func relabelled(h *core.Hypergraph, seed int64) *core.Hypergraph {
	rng := rand.New(rand.NewSource(seed))
	edgePerm, nodePerm := rng.Perm(h.NumEdges()), rng.Perm(h.NumNodes())
	sets := make([][]uint32, h.NumEdges())
	for e := range sets {
		for _, v := range h.EdgeIncidence(e) {
			sets[edgePerm[e]] = append(sets[edgePerm[e]], uint32(nodePerm[v]))
		}
	}
	return core.FromSets(sets, h.NumNodes())
}

// kernelShapes are the inputs bench/ pays the kernel on: batch-skew's
// power-law file and the two datasets the serve workloads load.
var kernelShapes = []struct {
	name  string
	build func() *core.Hypergraph
}{
	{"power-law", func() *core.Hypergraph { return gen.BipartitePowerLaw(10000, 8000, 40000, 1.6, 20220530) }},
	{"comm", func() *core.Hypergraph {
		return gen.Community(gen.CommunityConfig{NumEdges: 6500, NumNodes: 1000, MeanEdgeSize: 7, SizeSkew: 1.6, MemberSkew: 0.5, Seed: 20220530})
	}},
	{"contain", func() *core.Hypergraph {
		return gen.Containment(gen.ContainmentConfig{NumBase: 1200, NumNodes: 8000, BaseSize: 24, SubsPerBase: 7, MemberSkew: 0.45, Seed: 20220530})
	}},
}

// workCounts are what one run of the count loop does at threshold s,
// recounted here from the view alone: the hyperedge IDs it reads off
// hypernode rows (visits; each one increments a tally), the distinct
// (e, f) candidates they make (touched), and the pairs that reach s.
type workCounts struct{ visits, touched, emitted int }

func countWork(tb testing.TB, eng *parallel.Engine, in Input, s int) workCounts {
	v, ids, err := buildView(eng, in, s, DegreePrune, in.EdgeIDs())
	defer stashView(eng, v)
	if err != nil {
		tb.Fatal(err)
	}
	var wc workCounts
	tally := map[uint32]int{}
	for _, e := range ids {
		clear(tally)
		for _, u := range v.nodes(e) {
			for _, f := range v.above(u, e) {
				wc.visits++
				tally[f]++
			}
		}
		wc.touched += len(tally)
		for _, c := range tally {
			if c >= s {
				wc.emitted++
			}
		}
	}
	return wc
}

// TestWorkCountsOnPowerLaw pins the work the count loop does on
// batch-skew's shape at s = 2, the numbers EXPERIMENTS.md quotes: every
// visit is an increment (the parent's loop visited 19.5 M IDs for them).
func TestWorkCountsOnPowerLaw(t *testing.T) {
	in := FromHypergraph(relabelled(kernelShapes[0].build(), 1))
	got := countWork(t, teng, in, 2)
	if want := (workCounts{visits: 7_660_085, touched: 3_433_664, emitted: 1_896_180}); got != want {
		t.Fatalf("work counts %+v, want %+v", got, want)
	}
	csr, err := ConstructCSR(teng, in, 2, Options{})
	if err != nil || csr.NumEdges() != 2*got.emitted {
		t.Fatalf("ConstructCSR holds %d entries for %d emitted pairs, err = %v", csr.NumEdges(), got.emitted, err)
	}
}

var benchSink int

// BenchmarkConstructCSR times the s-overlap kernel stage by stage at s = 2
// on kernelShapes: the view alone; the count loop on it with every emitted
// run dropped; the collected runs; the whole ConstructCSR. Run it at
// -cpu 1,2: the engine has GOMAXPROCS workers.
func BenchmarkConstructCSR(b *testing.B) {
	const s = 2
	for _, shape := range kernelShapes {
		in := FromHypergraph(relabelled(shape.build(), 1))
		b.Run(shape.name, func(b *testing.B) {
			eng := parallel.NewEngine(0)
			defer eng.Close()
			wc := countWork(b, eng, in, s)
			stage := func(name string, body func() error) {
				b.Run(name, func(b *testing.B) {
					b.ReportAllocs()
					for i := 0; i < b.N; i++ {
						if err := body(); err != nil {
							b.Fatal(err)
						}
					}
					b.ReportMetric(float64(wc.visits), "visits/op")
					b.ReportMetric(float64(wc.visits), "increments/op")
					b.ReportMetric(float64(wc.touched), "touched/op")
					b.ReportMetric(float64(wc.emitted), "emitted/op")
				})
			}
			stage("view", func() error {
				v, ids, err := buildView(eng, in, s, DegreePrune, in.EdgeIDs())
				stashView(eng, v)
				benchSink += len(ids)
				return err
			})
			stage("count", func() error {
				v, ids, err := buildView(eng, in, s, DegreePrune, in.EdgeIDs())
				defer stashView(eng, v)
				if err != nil {
					return err
				}
				k := &kernel{view: v, s: s, ctr: DenseCounter, workers: make([]*worker, eng.NumWorkers())}
				defer stashWorkers(eng, k.workers)
				parallel.Drain(eng, parallel.NewWorkQueueFor(eng, ids), func(w int, e uint32) {
					st := workerOf(eng, k, w)
					st.ids = k.walk(st, e, st.ids)[:0]
				})
				return eng.Err()
			})
			stage("collect", func() error {
				c, err := collect(eng, in, s, Options{}, false)
				stashWorkers(eng, c.workers)
				return err
			})
			stage("full", func() error {
				csr, err := ConstructCSR(eng, in, s, Options{})
				if err == nil && csr.NumEdges() != 2*wc.emitted {
					b.Fatalf("%d entries, want %d", csr.NumEdges(), 2*wc.emitted)
				}
				return err
			})
		})
	}
}
