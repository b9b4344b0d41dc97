// Package countmap provides a specialized open-addressing hash map from
// uint32 keys to int32 counts, built for the inner loop of the
// hashmap-counting s-line-graph algorithms: one map per worker, cleared
// once per hyperedge. Clearing is O(1) via epoch stamping — no bucket
// zeroing — which is what makes the per-hyperedge reuse pattern cheap.
package countmap

// Map counts occurrences of uint32 keys. Not safe for concurrent use; the
// construction algorithms keep one per worker.
type Map struct {
	keys    []uint32
	vals    []int32
	stamps  []uint32
	epoch   uint32
	touched []uint32 // occupied slot indices for this epoch, for Range
	mask    uint32
	n       int
}

// New creates a map sized for about capHint distinct keys.
func New(capHint int) *Map {
	capacity := 16
	for capacity < capHint*2 {
		capacity *= 2
	}
	m := &Map{
		keys:   make([]uint32, capacity),
		vals:   make([]int32, capacity),
		stamps: make([]uint32, capacity),
		epoch:  1,
		mask:   uint32(capacity - 1),
	}
	return m
}

// hash mixes the key (Fibonacci hashing).
func hash(k uint32) uint32 { return k * 2654435761 }

// Inc adds delta to key's count (creating it at delta) and returns the new
// count.
func (m *Map) Inc(key uint32, delta int32) int32 {
	if m.n*3 >= len(m.keys)*2 {
		m.grow()
	}
	i := hash(key) & m.mask
	for {
		if m.stamps[i] != m.epoch {
			m.stamps[i] = m.epoch
			m.keys[i] = key
			m.vals[i] = delta
			m.touched = append(m.touched, i)
			m.n++
			return delta
		}
		if m.keys[i] == key {
			m.vals[i] += delta
			return m.vals[i]
		}
		i = (i + 1) & m.mask
	}
}

// Get returns key's count (0 if absent).
func (m *Map) Get(key uint32) int32 {
	i := hash(key) & m.mask
	for {
		if m.stamps[i] != m.epoch {
			return 0
		}
		if m.keys[i] == key {
			return m.vals[i]
		}
		i = (i + 1) & m.mask
	}
}

// Len reports the number of distinct keys this epoch.
func (m *Map) Len() int { return m.n }

// Clear resets the map in O(1) by advancing the epoch.
func (m *Map) Clear() {
	m.epoch++
	m.touched = m.touched[:0]
	m.n = 0
	if m.epoch == 0 { // stamp wraparound: hard reset
		for i := range m.stamps {
			m.stamps[i] = 0
		}
		m.epoch = 1
	}
}

// Range calls fn for every (key, count) of the current epoch, in insertion
// order of first occurrence.
func (m *Map) Range(fn func(key uint32, count int32)) {
	for _, i := range m.touched {
		fn(m.keys[i], m.vals[i])
	}
}

// grow doubles capacity and rehashes the current epoch's entries.
func (m *Map) grow() {
	oldKeys, oldVals, oldTouched := m.keys, m.vals, m.touched
	capacity := len(m.keys) * 2
	m.keys = make([]uint32, capacity)
	m.vals = make([]int32, capacity)
	m.stamps = make([]uint32, capacity)
	m.mask = uint32(capacity - 1)
	m.epoch = 1
	m.touched = make([]uint32, 0, len(oldTouched))
	m.n = 0
	for _, i := range oldTouched {
		m.Inc(oldKeys[i], oldVals[i])
	}
}
