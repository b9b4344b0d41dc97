// Package bad leaks arena scratch out of the steady-state reuse loop.
package bad

import "nwhy/internal/parallel"

// Leak grabs scratch and never stashes it back.
func Leak(eng *parallel.Engine, n int) {
	buf := eng.GrabU32(0) // want tls-recycle
	for i := 0; i < n; i++ {
		buf = append(buf, 0)
	}
}

// EarlyReturn has an escape path between the grab and the stash.
func EarlyReturn(eng *parallel.Engine, n int) int {
	buf := eng.GrabU32(0)
	if n == 0 {
		return 0 // want tls-recycle
	}
	for i := 0; i < n; i++ {
		buf = append(buf, uint32(i))
	}
	eng.StashU32(0, buf)
	return n
}
