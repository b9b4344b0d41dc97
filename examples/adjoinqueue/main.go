// Command adjoinqueue demonstrates the paper's central algorithmic claim:
// the queue-based s-line-graph construction algorithms (Algorithms 1 and 2)
// work on any hyperedge ID space — the adjoin representation's shared index
// set, even arbitrarily renamed IDs — while producing exactly the same
// s-line graph as the non-queue algorithms on the bipartite representation.
// Here all four are presets of one kernel.
package main

import (
	"fmt"
	"reflect"
	"time"

	"nwhy"
	"nwhy/internal/gen"
	"nwhy/internal/slinegraph"
)

func main() {
	preset, _ := gen.ByName("livejournal-mini")
	h := preset.Build(0.3)
	g := nwhy.Wrap(h)
	fmt.Printf("input: |E|=%d |V|=%d incidences=%d\n", g.NumEdges(), g.NumNodes(), g.NumIncidences())

	const s = 2

	// Reference: the non-queue hashmap algorithm on the bipartite form.
	t0 := time.Now()
	reference := g.SLineGraphWith(s, true, nwhy.PresetHashmap)
	fmt.Printf("bipartite + Hashmap:                 %7d edges in %v\n",
		reference.NumEdges(), time.Since(t0).Round(time.Millisecond))

	// Algorithm 1 on the same bipartite form.
	t0 = time.Now()
	q1 := g.SLineGraphWith(s, true, nwhy.PresetAlgorithm1)
	fmt.Printf("bipartite + Algorithm 1 (queue):     %7d edges in %v\n",
		q1.NumEdges(), time.Since(t0).Round(time.Millisecond))

	// Algorithm 1 fed the adjoin representation directly: one shared index
	// set, no conversion back to bipartite form.
	adjoin := g.Adjoin()
	onAdjoin := nwhy.PresetAlgorithm1
	onAdjoin.UseAdjoin = true
	t0 = time.Now()
	qa := g.SLineGraphWith(s, true, onAdjoin)
	fmt.Printf("adjoin    + Algorithm 1 (queue):     %7d edges in %v  (shared index set of %d IDs)\n",
		qa.NumEdges(), time.Since(t0).Round(time.Millisecond), adjoin.NumVertices())

	same := reflect.DeepEqual(reference.Pairs(), q1.Pairs()) &&
		reflect.DeepEqual(reference.Pairs(), qa.Pairs())
	fmt.Println("all three constructions identical:", same)

	// Finally, scatter the hyperedge IDs across a 4x larger sparse ID space
	// — the regime where the non-queue algorithms' [0, nE) assumption breaks
	// outright — and run Algorithm 1 via the Input interface.
	rename := map[uint32]uint32{}
	for e := 0; e < g.NumEdges(); e++ {
		rename[uint32(e)] = uint32(4*e + 3)
	}
	in := slinegraph.Renamed(slinegraph.FromHypergraph(h), rename, 4*g.NumEdges()+3)
	t0 = time.Now()
	alg1 := slinegraph.Options{Counter: slinegraph.HashmapCounter}
	renamed, _ := slinegraph.Construct(nwhy.SharedEngine(), in, s, alg1)
	fmt.Printf("renamed   + Algorithm 1 (queue):     %7d edges in %v  (IDs 3, 7, 11, ...)\n",
		len(renamed), time.Since(t0).Round(time.Millisecond))
	ok := len(renamed) == reference.NumEdges()
	for i, p := range renamed {
		want := reference.Pairs()[i]
		if p.U != 4*want.U+3 || p.V != 4*want.V+3 {
			ok = false
			break
		}
	}
	fmt.Println("renamed result maps back exactly:", ok)
}
