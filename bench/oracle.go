package main

import (
	"sort"
)

// The oracle is the benchmark's own serial reference: plain loops over the
// generated incidence lists, sharing no code with the program. Every timed
// output is compared to it.

// oracleHG is a hypergraph as sorted member lists plus the transposed
// node → hyperedges lists.
type oracleHG struct {
	edges [][]uint32
	nodes [][]uint32
}

func newOracleHG(inc incidence) *oracleHG {
	o := &oracleHG{edges: make([][]uint32, len(inc.edges)), nodes: make([][]uint32, inc.numNodes)}
	for e, members := range inc.edges {
		m := append([]uint32(nil), members...)
		sort.Slice(m, func(i, j int) bool { return m[i] < m[j] })
		o.edges[e] = m
		for _, v := range m {
			o.nodes[v] = append(o.nodes[v], uint32(e))
		}
	}
	return o
}

// hyperStats is the Table I row of a hypergraph.
type hyperStats struct {
	NumNodes, NumEdges           int
	AvgNodeDegree, AvgEdgeDegree float64
	MaxNodeDegree, MaxEdgeDegree int
}

func (o *oracleHG) stats() hyperStats {
	st := hyperStats{NumNodes: len(o.nodes), NumEdges: len(o.edges)}
	inc := 0
	for _, m := range o.edges {
		inc += len(m)
		st.MaxEdgeDegree = max(st.MaxEdgeDegree, len(m))
	}
	for _, es := range o.nodes {
		st.MaxNodeDegree = max(st.MaxNodeDegree, len(es))
	}
	if len(o.edges) > 0 {
		st.AvgEdgeDegree = float64(inc) / float64(len(o.edges))
	}
	if len(o.nodes) > 0 {
		st.AvgNodeDegree = float64(inc) / float64(len(o.nodes))
	}
	return st
}

// overlap is one hyperedge pair e < f sharing n hypernodes.
type overlap struct {
	e, f uint32
	n    int32
}

// overlaps counts |e ∩ f| for every pair node-centrically — each hypernode
// votes once for every pair of hyperedges it belongs to — and keeps the
// pairs sharing at least minS hypernodes.
func (o *oracleHG) overlaps(minS int) []overlap {
	var out []overlap
	count := make([]int32, len(o.edges))
	var touched []uint32
	for e, members := range o.edges {
		touched = touched[:0]
		for _, v := range members {
			for _, f := range o.nodes[v] {
				if int(f) > e {
					if count[f] == 0 {
						touched = append(touched, f)
					}
					count[f]++
				}
			}
		}
		for _, f := range touched {
			if int(count[f]) >= minS {
				out = append(out, overlap{uint32(e), f, count[f]})
			}
			count[f] = 0
		}
	}
	return out
}

// oracleLine is the s-line graph as adjacency lists over hyperedge IDs.
type oracleLine struct {
	adj      [][]uint32
	numEdges int
}

// lineAt keeps the pairs overlapping in at least s hypernodes.
func lineAt(n int, ov []overlap, s int) *oracleLine {
	l := &oracleLine{adj: make([][]uint32, n)}
	for _, p := range ov {
		if int(p.n) >= s {
			l.adj[p.e] = append(l.adj[p.e], p.f)
			l.adj[p.f] = append(l.adj[p.f], p.e)
			l.numEdges++
		}
	}
	return l
}

// components labels every vertex with the smallest ID of its component:
// union-find that always hooks the larger root under the smaller.
func (l *oracleLine) components() []uint32 {
	parent := make([]uint32, len(l.adj))
	for i := range parent {
		parent[i] = uint32(i)
	}
	var find func(x uint32) uint32
	find = func(x uint32) uint32 {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	for u, nbrs := range l.adj {
		for _, v := range nbrs {
			// A root stays its component's minimum ID.
			a, b := find(uint32(u)), find(v)
			if a < b {
				parent[b] = a
			} else if b < a {
				parent[a] = b
			}
		}
	}
	out := make([]uint32, len(parent))
	for i := range out {
		out[i] = find(uint32(i))
	}
	return out
}

// bfs fills dist with hop distances from src (-1: unreachable) and returns
// the vertices in visiting order.
func (l *oracleLine) bfs(src int, dist []int32, order []uint32) []uint32 {
	for i := range dist {
		dist[i] = -1
	}
	dist[src] = 0
	order = append(order[:0], uint32(src))
	for head := 0; head < len(order); head++ {
		u := order[head]
		for _, v := range l.adj[u] {
			if dist[v] < 0 {
				dist[v] = dist[u] + 1
				order = append(order, v)
			}
		}
	}
	return order
}

// centralities runs Brandes' algorithm from every source: betweenness
// (undirected, so halved; normalized by 1/((n-1)(n-2))) and, from the same
// distances, harmonic closeness (Σ 1/d over reachable vertices, ÷ (n-1)).
func (l *oracleLine) centralities() (betweenness, harmonic []float64) {
	n := len(l.adj)
	betweenness, harmonic = make([]float64, n), make([]float64, n)
	dist := make([]int32, n)
	sigma, delta := make([]float64, n), make([]float64, n)
	var order []uint32
	for src := 0; src < n; src++ {
		order = l.bfs(src, dist, order)
		for _, v := range order {
			sigma[v], delta[v] = 0, 0
		}
		sigma[src] = 1
		for _, u := range order {
			if d := dist[u]; d > 0 {
				harmonic[src] += 1 / float64(d)
			}
			for _, v := range l.adj[u] {
				if dist[v] == dist[u]+1 {
					sigma[v] += sigma[u]
				}
			}
		}
		for i := len(order) - 1; i > 0; i-- {
			w := order[i]
			for _, v := range l.adj[w] {
				if dist[v] == dist[w]-1 {
					delta[v] += sigma[v] / sigma[w] * (1 + delta[w])
				}
			}
			betweenness[w] += delta[w]
		}
	}
	for i := range betweenness {
		betweenness[i] /= 2
		if n > 2 {
			betweenness[i] /= float64(n-1) * float64(n-2)
		}
		if n > 1 {
			harmonic[i] /= float64(n - 1)
		}
	}
	return betweenness, harmonic
}

// bipartiteBFS returns bipartite hop levels from hyperedge src: the source
// is level 0, its hypernodes level 1, their hyperedges level 2, and so on.
func (o *oracleHG) bipartiteBFS(src int) (edgeLevel, nodeLevel []int32) {
	edgeLevel, nodeLevel = make([]int32, len(o.edges)), make([]int32, len(o.nodes))
	for i := range edgeLevel {
		edgeLevel[i] = -1
	}
	for i := range nodeLevel {
		nodeLevel[i] = -1
	}
	edgeLevel[src] = 0
	frontier := []uint32{uint32(src)}
	for level := int32(1); len(frontier) > 0; level++ {
		var next []uint32
		from, toLevel := o.edges, nodeLevel
		if level%2 == 0 {
			from, toLevel = o.nodes, edgeLevel
		}
		for _, u := range frontier {
			for _, v := range from[u] {
				if toLevel[v] < 0 {
					toLevel[v] = level
					next = append(next, v)
				}
			}
		}
		frontier = next
	}
	return edgeLevel, nodeLevel
}

// bipartiteCC labels hyperedges and hypernodes in the shared ID space
// (hyperedge e is e, hypernode v is |E|+v) with the smallest shared ID of
// their connected component.
func (o *oracleHG) bipartiteCC() (edgeComp, nodeComp []uint32) {
	ne := len(o.edges)
	l := &oracleLine{adj: make([][]uint32, ne+len(o.nodes))}
	for e, members := range o.edges {
		for _, v := range members {
			l.adj[e] = append(l.adj[e], uint32(ne)+v)
		}
	}
	comp := l.components()
	return comp[:ne], comp[ne:]
}

// toplexes lists the maximal hyperedges: e is dropped when another
// hyperedge strictly contains it, or equals it with a smaller ID. Empty
// hyperedges are contained in everything.
func (o *oracleHG) toplexes() []uint32 {
	var out []uint32
	for e, members := range o.edges {
		if len(members) == 0 {
			continue
		}
		// Any superset of e also holds e's rarest hypernode.
		rare := members[0]
		for _, v := range members {
			if len(o.nodes[v]) < len(o.nodes[rare]) {
				rare = v
			}
		}
		maximal := true
		for _, f := range o.nodes[rare] {
			fm := o.edges[f]
			if int(f) == e || len(fm) < len(members) || (len(fm) == len(members) && int(f) > e) {
				continue
			}
			if isSubset(members, fm) {
				maximal = false
				break
			}
		}
		if maximal {
			out = append(out, uint32(e))
		}
	}
	return out
}

// isSubset reports a ⊆ b for sorted lists.
func isSubset(a, b []uint32) bool {
	j := 0
	for _, x := range a {
		for j < len(b) && b[j] < x {
			j++
		}
		if j == len(b) || b[j] != x {
			return false
		}
	}
	return true
}
