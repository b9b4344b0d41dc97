// Package frontier is the shared traversal substrate of NWHy-Go: a
// dual-representation frontier type (sparse member list ⇄ dense atomic
// bitmap) and a generic direction-optimizing EdgeMap that implements
// Ligra-style push/pull switching once, for every frontier-based kernel in
// the repository.
//
// Before this package existed, frontier handling was implemented three
// separate times — internal/graph's three BFS variants, internal/hygra's
// vertexSubset/edgeMap, and internal/core's alternating bipartite
// frontiers. They now all build on Frontier + State.EdgeMap, so direction
// optimization, per-worker append buffers with a single merge path
// (parallel.FlattenTLS), and engine-scratch-backed buffer reuse apply
// uniformly: a BFS over the bipartite representation, a label propagation
// over an s-line graph, and the Hygra baseline all share one expansion
// engine and differ only in their visit functions.
package frontier

import (
	"strconv"

	"nwhy/internal/parallel"
)

// Frontier is a set of active entity IDs drawn from a space [0, n). The
// sparse member list is always materialized (it is what the merge path
// produces); the dense bitmap is built lazily on first Dense call — or
// eagerly by pull-direction EdgeMap rounds, which discover it for free —
// and cached. Frontiers are immutable once built; traversal loops consume
// them through State.EdgeMap, which recycles their buffers into the
// engine's scratch arenas.
type Frontier struct {
	n    int
	list []uint32
	bits *parallel.Bitset
}

// New returns an empty frontier over the space [0, n).
func New(n int) *Frontier { return &Frontier{n: n} }

// Single returns a frontier holding only id, backed by an engine scratch
// buffer when one is free.
func Single(eng *parallel.Engine, n int, id uint32) *Frontier {
	return &Frontier{n: n, list: append(eng.GrabU32(0), id)}
}

// FromList adopts ids as a frontier over [0, n). Ownership of the slice
// transfers: EdgeMap recycles it into the engine's scratch arenas, so the
// caller must not retain it.
func FromList(n int, ids []uint32) *Frontier {
	return &Frontier{n: n, list: ids}
}

// All returns the full frontier {0, …, n-1}, the usual starting point of
// label-propagation traversals.
func All(eng *parallel.Engine, n int) *Frontier {
	ids := eng.GrabU32(0)
	if cap(ids) < n {
		ids = make([]uint32, 0, n)
	}
	ids = ids[:n]
	for i := range ids {
		ids[i] = uint32(i)
	}
	return &Frontier{n: n, list: ids}
}

// Len reports the number of active entities.
func (f *Frontier) Len() int { return len(f.list) }

// Empty reports whether no entity is active.
func (f *Frontier) Empty() bool { return len(f.list) == 0 }

// Members returns the sparse member list. The slice is owned by the
// frontier; it is recycled when the frontier is consumed.
func (f *Frontier) Members() []uint32 { return f.list }

// denseCutoff is the member count above which Dense builds the bitmap with
// a parallel loop instead of serially.
const denseCutoff = 1 << 12

// Dense returns the dense bitmap form, building and caching it from the
// member list on first call (pull-direction EdgeMap rounds hand their
// output frontier a ready-made bitmap instead).
func (f *Frontier) Dense(eng *parallel.Engine) *parallel.Bitset {
	if f.bits == nil {
		f.bits = grabBits(eng, f.n)
		if len(f.list) >= denseCutoff {
			list, bits := f.list, f.bits
			eng.ForN(len(list), func(_, lo, hi int) {
				for i := lo; i < hi; i++ {
					bits.Set(int(list[i]))
				}
			})
		} else {
			for _, u := range f.list {
				f.bits.Set(int(u))
			}
		}
	}
	return f.bits
}

// Release returns the frontier's buffers to eng's scratch arenas. EdgeMap
// releases the frontier it consumes automatically; traversal loops call
// Release once on the final (empty or abandoned) frontier.
func (f *Frontier) Release(eng *parallel.Engine) {
	if f == nil {
		return
	}
	if f.list != nil {
		eng.StashU32(0, f.list)
		f.list = nil
	}
	if f.bits != nil {
		eng.Stash(0, bitsKey(f.bits.Len()), f.bits)
		f.bits = nil
	}
}

// bitsKey is the arena key frontier bitmaps of one size are stashed under.
// The size is part of the key because bipartite traversals alternate
// between two ID spaces and must not hand one side the other's bitmap.
func bitsKey(n int) string { return "frontier/bits/" + strconv.Itoa(n) }

// grabBits pops a cleared reusable bitmap of n bits from eng's scratch, or
// allocates one.
func grabBits(eng *parallel.Engine, n int) *parallel.Bitset {
	if v, ok := eng.Grab(0, bitsKey(n)); ok {
		b := v.(*parallel.Bitset)
		b.Clear()
		return b
	}
	return parallel.NewBitset(n)
}
