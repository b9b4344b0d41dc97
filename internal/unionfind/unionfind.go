// Package unionfind provides a lock-free concurrent disjoint-set forest
// (the Afforest-style link/compress structure), shared by the connected
// component algorithms and by the direct s-component computation that
// unions s-incident hyperedge pairs during construction without
// materializing the s-line graph.
package unionfind

import (
	"nwhy/internal/parallel"
)

// Forest is a concurrent disjoint-set forest over uint32 IDs. Union is safe
// to call from many goroutines; Find is safe concurrently with Union but
// only stabilizes after Compress. The representative of a set is always its
// minimum member after Compress.
type Forest struct {
	parent []uint32
}

// New creates a forest of n singleton sets.
func New(n int) *Forest {
	f := &Forest{parent: make([]uint32, n)}
	for i := range f.parent {
		f.parent[i] = uint32(i)
	}
	return f
}

// Len reports the element count.
func (f *Forest) Len() int { return len(f.parent) }

// Grow extends the forest to n elements, appending singleton sets. IDs
// below the old length keep their set membership, so an incremental
// algorithm can widen its forest as the ID space grows and then absorb
// new unions. Shrinking is not supported (n <= Len is a no-op). Not safe
// concurrently with Union/Find.
func (f *Forest) Grow(n int) {
	for i := len(f.parent); i < n; i++ {
		f.parent = append(f.parent, uint32(i))
	}
}

// Union merges the sets containing u and v with lock-free hooking by
// minimum root (the Afforest link operation).
func (f *Forest) Union(u, v uint32) { f.TryUnion(u, v) }

// TryUnion merges the sets containing u and v, reporting whether this call
// performed the link. A false return means the two were already one set
// (possibly merged concurrently by another caller an instant earlier) —
// the signal the kernel's connected short-circuit and the tests use to
// count productive unions. Lock-free, same hooking discipline as Union.
func (f *Forest) TryUnion(u, v uint32) bool {
	p1 := parallel.LoadU32(&f.parent[u])
	p2 := parallel.LoadU32(&f.parent[v])
	for p1 != p2 {
		high, low := p1, p2
		if high < low {
			high, low = low, high
		}
		pHigh := parallel.LoadU32(&f.parent[high])
		if pHigh == low {
			return false
		}
		if pHigh == high && parallel.CASU32(&f.parent[high], high, low) {
			return true
		}
		p1 = parallel.LoadU32(&f.parent[parallel.LoadU32(&f.parent[high])])
		p2 = parallel.LoadU32(&f.parent[low])
	}
	return false
}

// Find returns the current root of x's set (with path halving). Between a
// quiescent point and the next Union burst this is exact; during concurrent
// Unions it may lag, which the CC algorithms tolerate.
func (f *Forest) Find(x uint32) uint32 {
	for {
		p := parallel.LoadU32(&f.parent[x])
		pp := parallel.LoadU32(&f.parent[p])
		if p == pp {
			return p
		}
		parallel.CASU32(&f.parent[x], p, pp)
		x = pp
	}
}

// Compress fully flattens the forest in parallel on eng so parent[x] is x's
// root for every element. Call between Union phases, not concurrently with
// them. A cancelled engine skips chunks: the forest is still a valid
// union-find (every pointer still leads to its root), but Labels are not
// roots until a live Compress finishes — callers return eng.Err() first.
func (f *Forest) Compress(eng *parallel.Engine) {
	eng.ForN(len(f.parent), func(_, lo, hi int) {
		for x := lo; x < hi; x++ {
			for {
				p := parallel.LoadU32(&f.parent[x])
				pp := parallel.LoadU32(&f.parent[p])
				if p == pp {
					break
				}
				parallel.StoreU32(&f.parent[x], pp)
			}
		}
	})
}

// Labels returns the flattened parent array (aliasing internal storage);
// call Compress first.
func (f *Forest) Labels() []uint32 { return f.parent }

// Same reports whether u and v are currently in one set (quiescent use).
func (f *Forest) Same(u, v uint32) bool { return f.Find(u) == f.Find(v) }

// SameSet reports whether u and v are in one set, safely during concurrent
// Union bursts: a true result is definitive (both Finds reached a common
// element, and connectivity only ever grows), while a false result may be
// stale the instant it returns. That asymmetry is exactly what the kernel's
// connected short-circuit tolerates — a false negative costs one redundant
// overlap count; a false positive would lose a component merge and cannot
// happen. The loop retries while the roots it observed were concurrently
// hooked under something else, so false negatives are confined to genuinely
// racing unions.
func (f *Forest) SameSet(u, v uint32) bool {
	for {
		ru := f.Find(u)
		rv := f.Find(v)
		if ru == rv {
			return true
		}
		if parallel.LoadU32(&f.parent[ru]) == ru {
			return false
		}
		u, v = ru, rv
	}
}
