package countmap

import "math"

// Dense counts occurrences of uint32 keys in a flat array indexed by key —
// the counter-array alternative to the hash map. Inc and Get are a single
// indexed access with no probing, which wins when a hyperedge overlaps a
// large fraction of the ID space (dense overlap); the cost is O(key space)
// memory per worker, one 4-byte cell a key. Clearing is O(1): a cell holds
// its count above a floor, and Clear raises the floor to the highest value
// any cell has reached. It keeps no list of the keys it holds: the
// s-overlap kernel acts on the count Inc returns. Not safe for concurrent
// use.
type Dense struct {
	cells      []int32
	floor, top int32 // every cell ≤ top; a cell ≤ floor counts 0
}

// NewDense creates a dense counter for keys in [0, n).
func NewDense(n int) *Dense { return &Dense{cells: make([]int32, n)} }

// Reset clears the counter and grows its array to cover keys in [0, n).
func (d *Dense) Reset(n int) {
	if n > len(d.cells) {
		*d = Dense{cells: make([]int32, n)}
	}
	d.Clear()
}

// Inc adds delta > 0 to key's count (creating it at delta) and returns the
// new count. key must be within the range given to NewDense/Reset.
func (d *Dense) Inc(key uint32, delta int32) int32 {
	c := max(d.cells[key], d.floor) + delta
	d.cells[key] = c
	d.top = max(d.top, c)
	return c - d.floor
}

// Get returns key's count (0 if absent or out of range).
func (d *Dense) Get(key uint32) int32 {
	if int(key) >= len(d.cells) {
		return 0
	}
	return max(d.cells[key], d.floor) - d.floor
}

// Clear resets the counter in O(1) by raising the floor.
func (d *Dense) Clear() {
	d.floor = d.top
	if d.floor > math.MaxInt32/2 { // no headroom left for counts: hard reset
		clear(d.cells)
		d.floor, d.top = 0, 0
	}
}
