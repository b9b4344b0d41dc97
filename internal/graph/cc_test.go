package graph

import (
	"reflect"
	"testing"
	"testing/quick"
)

// ccOracle computes components with sequential union-find.
func ccOracle(g *Graph) []uint32 {
	n := g.NumVertices()
	parent := make([]int, n)
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	for u := 0; u < n; u++ {
		for _, v := range g.Row(u) {
			ru, rv := find(u), find(int(v))
			if ru != rv {
				if ru < rv {
					parent[rv] = ru
				} else {
					parent[ru] = rv
				}
			}
		}
	}
	out := make([]uint32, n)
	for i := range out {
		out[i] = uint32(find(i))
	}
	return out
}

var ccAlgorithms = map[string]func(*Graph) []uint32{
	"labelprop": tCCLabelPropagation,
	"afforest":  tCCAfforest,
}

func checkCC(t *testing.T, g *Graph) {
	t.Helper()
	want := CanonicalizeComponents(ccOracle(g))
	for name, fn := range ccAlgorithms {
		got := CanonicalizeComponents(fn(g))
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s components differ from oracle\n got %v\nwant %v", name, got, want)
		}
	}
}

func TestCCPath(t *testing.T)     { checkCC(t, pathGraph(20)) }
func TestCCComplete(t *testing.T) { checkCC(t, completeGraph(10)) }

func TestCCDisconnected(t *testing.T) {
	g := buildGraph(10, [][2]uint32{{0, 1}, {2, 3}, {3, 4}, {7, 8}})
	checkCC(t, g)
	comp := tCCLabelPropagation(g)
	if NumComponents(comp) != 6 {
		t.Fatalf("NumComponents = %d, want 6 (three pairs + {5},{6},{9} singletons... actually components {0,1},{2,3,4},{7,8},{5},{6},{9})", NumComponents(comp))
	}
}

func TestCCEmptyGraph(t *testing.T) {
	g := buildGraph(5, nil)
	for name, fn := range ccAlgorithms {
		comp := fn(g)
		if NumComponents(comp) != 5 {
			t.Fatalf("%s: %d components on edgeless graph, want 5", name, NumComponents(comp))
		}
	}
}

func TestCCSingleGiantComponent(t *testing.T) {
	g := randomGraph(500, 3000, 5)
	checkCC(t, g)
}

func TestCCManySmallComponents(t *testing.T) {
	// 100 disjoint triangles: exercises Afforest's giant-component skip on
	// an input where sampling may pick any label.
	var pairs [][2]uint32
	for i := 0; i < 100; i++ {
		b := uint32(3 * i)
		pairs = append(pairs, [2]uint32{b, b + 1}, [2]uint32{b + 1, b + 2}, [2]uint32{b, b + 2})
	}
	g := buildGraph(300, pairs)
	checkCC(t, g)
	if got := NumComponents(tCCAfforest(g)); got != 100 {
		t.Fatalf("NumComponents = %d, want 100", got)
	}
}

func TestCCRandomAgreementProperty(t *testing.T) {
	f := func(seed int64) bool {
		g := randomGraph(80, 120, seed)
		want := CanonicalizeComponents(ccOracle(g))
		for _, fn := range ccAlgorithms {
			if !reflect.DeepEqual(CanonicalizeComponents(fn(g)), want) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestCanonicalizeComponents(t *testing.T) {
	comp := []uint32{7, 7, 3, 3, 7}
	got := CanonicalizeComponents(comp)
	if !reflect.DeepEqual(got, []uint32{0, 0, 2, 2, 0}) {
		t.Fatalf("Canonicalize = %v", got)
	}
}
