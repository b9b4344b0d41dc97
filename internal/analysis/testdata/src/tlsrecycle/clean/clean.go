// Package clean pairs every arena grab with its recycle, including through
// package-local ownership-transferring wrappers.
package clean

import "nwhy/internal/parallel"

// Paired grabs scratch and stashes it back in the same function.
func Paired(eng *parallel.Engine, n int) {
	buf := eng.GrabU32(0)
	for i := 0; i < n; i++ {
		buf = append(buf, 0)
	}
	eng.StashU32(0, buf)
}

// grabScratch transfers ownership of grabbed scratch to its caller; it is
// exempt itself, and calling it counts as a grab at the call site.
func grabScratch(eng *parallel.Engine, n int) []uint32 {
	buf := eng.GrabU32(0)
	return append(buf, make([]uint32, n)...)
}

// stashScratch recycles scratch grabbed through grabScratch; calling it
// counts as a recycle at the call site.
func stashScratch(eng *parallel.Engine, buf []uint32) {
	eng.StashU32(0, buf)
}

// Wrapped pairs the two wrappers, so it is clean.
func Wrapped(eng *parallel.Engine, n int) {
	buf := grabScratch(eng, n)
	for i := range buf {
		buf[i] = uint32(i)
	}
	stashScratch(eng, buf)
}
