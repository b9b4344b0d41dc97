package slinegraph

import (
	"context"
	"errors"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"nwhy/internal/core"
	"nwhy/internal/gen"
	"nwhy/internal/parallel"
	"nwhy/internal/parallel/paralleltest"
	"nwhy/internal/sparse"
)

// lineRows lays a canonical pair list out as the sorted adjacency rows the
// CSR must hold: walking (U, V)-sorted pairs hands every row its lower
// neighbours, ascending, before its upper ones, ascending.
func lineRows(idSpace int, pairs []sparse.Edge) [][]uint32 {
	rows := make([][]uint32, idSpace)
	for _, p := range pairs {
		rows[p.U] = append(rows[p.U], p.V)
		rows[p.V] = append(rows[p.V], p.U)
	}
	return rows
}

// FuzzConstructCSR is the differential pin of the run collector and the
// assembly: on random small hypergraphs — with or without a
// hub hyperedge adjacent to everything, at thresholds up to one that leaves
// the line graph empty — ConstructCSR's rows and Construct's pairs must equal
// the Naive oracle's for every counter at 1, 2 and 3 workers, on the
// bipartite input, the adjoin input (ID space wider
// than the hyperedge range) and a Renamed input (non-contiguous IDs). The
// value column rides along: ConstructWeightedCSR has the same RowPtr and Col,
// every Val is the brute-force overlap, symmetric, and KeepAtLeast(s') is
// ConstructCSR(s') for every s' from s up. And for every pruning level too,
// RowPtr, Col and Val are byte for byte those of the routine this kernel
// replaced (parent_test.go).
func FuzzConstructCSR(f *testing.F) {
	engines := []*parallel.Engine{parallel.NewEngine(1), parallel.NewEngine(2), parallel.NewEngine(3)}
	f.Cleanup(func() {
		for _, eng := range engines {
			eng.Close()
		}
	})
	f.Add(int64(1), uint8(0), false)
	f.Add(int64(2), uint8(1), true)
	f.Add(int64(-9), uint8(2), true)
	f.Add(int64(77), uint8(5), true) // s = 6 > every degree but the hub's: empty
	f.Fuzz(func(t *testing.T, seed int64, sRaw uint8, hub bool) {
		const nv = 14
		s := 1 + int(sRaw%6)
		rng := rand.New(rand.NewSource(seed))
		base := randomHypergraph(1+rng.Intn(30), nv, 5, seed)
		sets := make([][]uint32, base.NumEdges())
		for e := range sets {
			sets[e] = base.EdgeIncidence(e)
		}
		if hub {
			all := make([]uint32, nv)
			for v := range all {
				all[v] = uint32(v)
			}
			sets = append(sets, all)
		}
		h := core.FromSets(sets, nv)
		ne := h.NumEdges()
		oracle := tNaive(h, s)

		space := 4 * ne
		rename := map[uint32]uint32{}
		for e, id := range rng.Perm(space)[:ne] {
			rename[uint32(e)] = uint32(id)
		}
		var renamed []sparse.Edge
		for _, p := range oracle {
			u, v := rename[p.U], rename[p.V]
			renamed = append(renamed, sparse.Edge{U: min(u, v), V: max(u, v)})
		}
		sort.Slice(renamed, func(a, b int) bool {
			return renamed[a].U < renamed[b].U || renamed[a].U == renamed[b].U && renamed[a].V < renamed[b].V
		})

		for _, tc := range []struct {
			name string
			in   Input
			want []sparse.Edge
		}{
			{"bipartite", FromHypergraph(h), oracle},
			{"adjoin", FromAdjoin(core.Adjoin(teng, h)), oracle},
			{"renamed", Renamed(FromHypergraph(h), rename, space), renamed},
		} {
			wantRows := lineRows(tc.in.IDSpace(), tc.want)
			parent := map[bool]*sparse.CSR{}
			for _, exact := range []bool{false, true} {
				var err error
				if parent[exact], err = parentConstructCSR(teng, tc.in, s, exact); err != nil {
					t.Fatal(err)
				}
			}
			const sMax = 7 // above every overlap: nothing but the hub has more than 5 members
			members := map[int]*sparse.CSR{}
			for s2 := s; s2 <= sMax; s2++ {
				member, err := ConstructCSR(teng, tc.in, s2, Options{})
				if err != nil {
					t.Fatal(err)
				}
				members[s2] = member
			}
			for _, eng := range engines {
				for _, ctr := range allCounters {
					o := Options{Counter: ctr}
					fail := func(format string, args ...any) {
						t.Helper()
						t.Fatalf("seed=%d s=%d hub=%v %s workers=%d counter=%v: "+format,
							append([]any{seed, s, hub, tc.name, eng.NumWorkers(), ctr}, args...)...)
					}
					csr, err := ConstructCSR(eng, tc.in, s, o)
					if err != nil {
						fail("ConstructCSR: %v", err)
					}
					if csr.NumRows() != tc.in.IDSpace() || csr.NumEdges() != 2*len(tc.want) {
						fail("CSR has %d rows, %d entries; want %d, %d", csr.NumRows(), csr.NumEdges(), tc.in.IDSpace(), 2*len(tc.want))
					}
					for e, want := range wantRows {
						row := csr.Row(e)
						if !slices.Equal(row, want) {
							fail("row %d = %v, want %v", e, row, want)
						}
						for k := 1; k < len(row); k++ {
							if row[k-1] >= row[k] {
								fail("row %d = %v repeats or misorders an entry", e, row)
							}
						}
					}
					pairs, err := Construct(eng, tc.in, s, o)
					if err != nil {
						fail("Construct: %v", err)
					}
					if !slices.Equal(pairs, tc.want) || (len(tc.want) == 0 && pairs != nil) {
						fail("Construct = %v, want %v", pairs, tc.want)
					}
					weighted, err := ConstructWeightedCSR(eng, tc.in, s, o)
					if err != nil {
						fail("ConstructWeightedCSR: %v", err)
					}
					if !slices.Equal(weighted.RowPtr, csr.RowPtr) || !slices.Equal(weighted.Col, csr.Col) || csr.Val != nil {
						fail("the weighted CSR's RowPtr/Col differ from ConstructCSR's")
					}
					for _, p := range allPrunes {
						o.Prune = p
						for exact, build := range map[bool]func(*parallel.Engine, Input, int, Options) (*sparse.CSR, error){false: ConstructCSR, true: ConstructWeightedCSR} {
							got, err := build(eng, tc.in, s, o)
							if err == nil {
								err = sameBytes(got, parent[exact])
							}
							if err != nil {
								fail("prune=%v exact=%v: %v", p, exact, err)
							}
						}
					}
					for e := range wantRows {
						for k, f := range weighted.Row(e) {
							got := weighted.RowVal(e)[k]
							if want := exactOverlap(tc.in.Incidence(uint32(e)), tc.in.Incidence(f)); got != float64(want) || strengthOf(weighted, f, uint32(e)) != want {
								fail("overlap of (%d, %d) = %v, of (%d, %d) = %d, want %d both ways", e, f, got, f, e, strengthOf(weighted, f, uint32(e)), want)
							}
						}
					}
					for s2, member := range members {
						kept, err := weighted.KeepAtLeast(eng, float64(s2))
						if err != nil {
							fail("KeepAtLeast(%d): %v", s2, err)
						}
						if !slices.Equal(kept.RowPtr, member.RowPtr) || !slices.Equal(kept.Col, member.Col) || kept.Val != nil {
							fail("KeepAtLeast(%d) differs from ConstructCSR at that s", s2)
						}
					}
				}
			}
		}
	})
}

// TestConstructStaysOnEngine pins the engine binding: a construction on a
// 1-worker engine must hand the process-wide default pool nothing — not a
// row sort, not a scan — or a thread limit and a request context would stop
// applying part of the way through. The input is wide enough (> 2^14 IDs)
// to take the parallel branch of every helper that has one.
func TestConstructStaysOnEngine(t *testing.T) {
	eng := parallel.NewEngine(1)
	defer eng.Close()
	in := FromHypergraph(gen.Uniform(20000, 6000, 3, 5))
	def := parallel.Default()
	before := def.Submitted()
	for _, o := range []Options{{}, {Counter: HashmapCounter}, {Counter: IntersectionCounter}} {
		csr, err := ConstructCSR(eng, in, 1, o)
		if err != nil {
			t.Fatal(err)
		}
		pairs, err := Construct(eng, in, 1, o)
		if err != nil {
			t.Fatal(err)
		}
		if len(pairs) == 0 || csr.NumEdges() != 2*len(pairs) {
			t.Fatalf("%+v: %d CSR entries for %d pairs", o, csr.NumEdges(), len(pairs))
		}
		weighted, err := ConstructWeightedCSR(eng, in, 1, o)
		if err != nil {
			t.Fatal(err)
		}
		if kept, err := weighted.KeepAtLeast(eng, 1); err != nil || !kept.Equal(csr) {
			t.Fatalf("%+v: KeepAtLeast(1) of the weighted CSR is not ConstructCSR's: err = %v", o, err)
		}
	}
	if got := def.Submitted() - before; got != 0 {
		t.Fatalf("the default pool received %d tasks during constructions bound to a 1-worker engine", got)
	}
}

// TestAssembleSurfacesCancellation cancels between the kernel pass and the
// assembly: the collected runs are complete, yet ConstructCSR's second half
// must give the error back from its first phase on. Either way release hands
// the view and every worker's state — run buffer, value buffer, bitmap
// scratch — back to the arena it came from.
func TestAssembleSurfacesCancellation(t *testing.T) {
	eng := parallel.NewEngine(2)
	defer eng.Close()
	for _, exact := range []bool{false, true} {
		ctx, cancel := context.WithCancel(context.Background())
		bound := eng.WithContext(ctx)
		c, err := collect(bound, FromHypergraph(gen.Uniform(400, 200, 5, 11)), 1, Options{}, exact)
		if err != nil {
			t.Fatal(err)
		}
		cancel()
		if _, _, _, err := c.assemble(bound); !errors.Is(err, context.Canceled) {
			t.Fatalf("exact=%v: assemble on a cancelled engine: err = %v, want Canceled", exact, err)
		}
		_, col, val, err := c.assemble(eng)
		if err != nil || len(col) == 0 || (exact && len(val) != len(col)) || (!exact && val != nil) {
			t.Fatalf("exact=%v: assemble of the same runs on the live engine: %d entries, %d values, err = %v", exact, len(col), len(val), err)
		}
		stashWorkers(eng, c.workers)
		if bound := checkArenaScratchClean(t, eng); bound == 0 {
			t.Fatalf("exact=%v: no worker state came back to the arenas", exact)
		}
	}
}

// checkArenaScratchClean pops every view and worker state stashed in eng's
// arenas, checks the state each must be in between runs (the bitmap scratch
// all zero), puts them back and returns how many worker states it saw.
func checkArenaScratchClean(t *testing.T, eng *parallel.Engine) int {
	t.Helper()
	found := 0
	for w := 0; w < eng.NumWorkers(); w++ {
		for _, key := range []string{viewKey, workerKey} {
			var held []any
			for v, ok := eng.Grab(w, key); ok; v, ok = eng.Grab(w, key) {
				held = append(held, v)
			}
			for _, v := range held {
				if st, ok := v.(*worker); ok {
					found++
					for i, word := range st.bits {
						if word != 0 {
							t.Fatalf("worker %d's stashed bitmap scratch has word %d = %#x", w, i, word)
						}
					}
				}
				eng.Stash(w, key, v)
			}
		}
	}
	return found
}

// TestConstructCancelledAtEveryPoll cancels ConstructCSR and
// ConstructWeightedCSR at each poll of their engine in turn — in the view's
// two transposes, in the queue's count loop, in the assembly's
// transpose and copy, in the validation: a cancelled run returns the error
// and no CSR, a run that finishes returns the oracle's, and either way the
// view, the run and value buffers and the bitmap scratch are back in the
// arenas, the scratch zeroed.
func TestConstructCancelledAtEveryPoll(t *testing.T) {
	h := gen.Uniform(300, 60, 5, 11)
	in := FromHypergraph(h)
	for workers := 1; workers <= 3; workers++ {
		eng := parallel.NewEngine(workers)
		for _, exact := range []bool{false, true} {
			want, err := parentConstructCSR(teng, in, 2, exact)
			if err != nil {
				t.Fatal(err)
			}
			build := ConstructCSR
			if exact {
				build = ConstructWeightedCSR
			}
			paralleltest.CancelAtEveryPoll(t, eng, func(e *parallel.Engine) (*sparse.CSR, error) {
				csr, err := build(e, in, 2, Options{})
				if checkArenaScratchClean(t, eng) == 0 && err == nil {
					t.Fatal("a finished run stashed no worker state")
				}
				return csr, err
			}, func(got *sparse.CSR) error { return sameBytes(got, want) })
		}
		eng.Close()
	}
}
