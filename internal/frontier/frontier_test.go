package frontier

import (
	"math/rand"
	"sort"
	"sync/atomic"
	"testing"
	"testing/quick"

	"nwhy/internal/parallel"
)

var teng = parallel.SharedEngine()

// randAdj builds a random undirected adjacency over n vertices with ~deg
// neighbors each (symmetric, no self loops, possibly disconnected).
func randAdj(n, deg int, seed int64) [][]uint32 {
	rng := rand.New(rand.NewSource(seed))
	adj := make([][]uint32, n)
	for u := 0; u < n; u++ {
		for k := 0; k < deg; k++ {
			v := rng.Intn(n)
			if v == u {
				continue
			}
			adj[u] = append(adj[u], uint32(v))
			adj[v] = append(adj[v], uint32(u))
		}
	}
	return adj
}

func arcCount(adj [][]uint32) int64 {
	var m int64
	for _, row := range adj {
		m += int64(len(row))
	}
	return m
}

// bfsLevels runs a full BFS traversal through EdgeMap under one strategy.
func bfsLevels(adj [][]uint32, src int, strategy Strategy) []int32 {
	n := len(adj)
	level := make([]int32, n)
	for i := range level {
		level[i] = -1
	}
	level[src] = 0
	row := func(u int) []uint32 { return adj[u] }
	st := NewState(arcCount(adj), strategy)
	f := Single(teng, n, uint32(src))
	for depth := int32(1); !f.Empty(); depth++ {
		d := depth
		f = st.EdgeMap(teng, f, n, row, row,
			func(_, v uint32) bool {
				return atomic.CompareAndSwapInt32(&level[v], -1, d)
			},
			func(v uint32) bool { return atomic.LoadInt32(&level[v]) == -1 })
	}
	f.Release(teng)
	return level
}

// bfsOracle is the sequential reference.
func bfsOracle(adj [][]uint32, src int) []int32 {
	level := make([]int32, len(adj))
	for i := range level {
		level[i] = -1
	}
	level[src] = 0
	queue := []int{src}
	for head := 0; head < len(queue); head++ {
		u := queue[head]
		for _, v := range adj[u] {
			if level[v] == -1 {
				level[v] = level[u] + 1
				queue = append(queue, int(v))
			}
		}
	}
	return level
}

func TestEdgeMapBFSAllStrategies(t *testing.T) {
	f := func(seed int64) bool {
		adj := randAdj(120, 3, seed)
		want := bfsOracle(adj, 0)
		for _, strat := range []Strategy{ForcePush, ForcePull, Auto} {
			got := bfsLevels(adj, 0, strat)
			for v := range want {
				if got[v] != want[v] {
					t.Logf("strategy %v: level[%d] = %d, want %d", strat, v, got[v], want[v])
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestEdgeMapDedup drives a label-propagation round where one target is
// claimable from several sources and asserts the next frontier holds it
// once.
func TestEdgeMapDedup(t *testing.T) {
	// Star: sources 1..8 all point at vertex 0.
	n := 9
	adj := make([][]uint32, n)
	for u := 1; u < n; u++ {
		adj[u] = []uint32{0}
	}
	labels := []uint32{100, 1, 2, 3, 4, 5, 6, 7, 8}
	st := NewState(8, ForcePush)
	st.Dedup = true
	ids := make([]uint32, 8)
	for i := range ids {
		ids[i] = uint32(i + 1)
	}
	f := FromList(n, ids)
	next := st.EdgeMap(teng, f, n, func(u int) []uint32 { return adj[u] }, nil,
		func(u, v uint32) bool {
			return parallel.MinU32(&labels[v], parallel.LoadU32(&labels[u]))
		}, nil)
	if next.Len() != 1 || next.Members()[0] != 0 {
		t.Fatalf("dedup next frontier = %v, want [0]", next.Members())
	}
	if labels[0] != 1 {
		t.Fatalf("label[0] = %d, want 1", labels[0])
	}
	next.Release(teng)
}

func TestFrontierRepresentations(t *testing.T) {
	f := FromList(100, []uint32{3, 97, 41})
	if f.Len() != 3 || f.Empty() {
		t.Fatalf("bad frontier shape: len=%d", f.Len())
	}
	b := f.Dense(teng)
	for i := 0; i < 100; i++ {
		want := i == 3 || i == 97 || i == 41
		if b.Get(i) != want {
			t.Fatalf("dense bit %d = %v", i, b.Get(i))
		}
	}
	f.Release(teng)

	all := All(teng, 5)
	got := append([]uint32(nil), all.Members()...)
	sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
	for i, v := range got {
		if v != uint32(i) {
			t.Fatalf("All members = %v", got)
		}
	}
	all.Release(teng)

	if !New(7).Empty() {
		t.Fatal("New frontier should be empty")
	}
}

func TestStrategyString(t *testing.T) {
	if Auto.String() != "auto" || ForcePush.String() != "push" || ForcePull.String() != "pull" {
		t.Fatal("strategy names changed")
	}
}

// TestStateDirectionSwitch asserts the alpha/beta heuristics actually
// switch direction on a graph engineered for it: a huge frontier must pull,
// then a tiny one must push again.
func TestStateDirectionSwitch(t *testing.T) {
	st := NewState(1000, Auto)
	// Tiny frontier, huge unexplored volume -> push.
	outRow := func(int) []uint32 { return make([]uint32, 10) }
	if st.decide(FromList(100, []uint32{0}), 100, outRow, true) {
		t.Fatal("small frontier should push")
	}
	// Frontier whose volume dwarfs what is left -> pull.
	big := make([]uint32, 90)
	for i := range big {
		big[i] = uint32(i)
	}
	if !st.decide(FromList(100, big), 100, outRow, true) {
		t.Fatal("huge frontier should pull")
	}
	// Back to a frontier below n/beta -> push again.
	if st.decide(FromList(100, []uint32{0, 1}), 100, outRow, true) {
		t.Fatal("shrunken frontier should push")
	}
	// Pull impossible without an in-adjacency.
	if st.decide(FromList(100, big), 100, outRow, false) {
		t.Fatal("cannot pull without inRow")
	}
}

// TestScratchReuse asserts EdgeMap recycles frontier buffers: after a
// traversal on a private engine, the arena holds reusable u32 buffers.
func TestScratchReuse(t *testing.T) {
	eng := parallel.NewEngine(2)
	defer eng.Close()
	adj := randAdj(200, 3, 7)
	row := func(u int) []uint32 { return adj[u] }
	for rep := 0; rep < 3; rep++ {
		level := make([]int32, len(adj))
		for i := range level {
			level[i] = -1
		}
		level[0] = 0
		st := NewState(arcCount(adj), Auto)
		f := Single(eng, len(adj), 0)
		for depth := int32(1); !f.Empty(); depth++ {
			d := depth
			f = st.EdgeMap(eng, f, len(adj), row, row,
				func(_, v uint32) bool {
					return atomic.CompareAndSwapInt32(&level[v], -1, d)
				},
				func(v uint32) bool { return atomic.LoadInt32(&level[v]) == -1 })
		}
		f.Release(eng)
	}
	if buf := eng.GrabU32(0); buf == nil {
		t.Fatal("no recycled buffer in arena after traversals")
	}
}
