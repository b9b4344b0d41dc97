// Package clean follows the engine-first discipline: the engine is the
// first parameter of every kernel that takes one, loops run on the
// caller's engine, and methods receive theirs through a carrying type.
package clean

import "nwhy/internal/parallel"

// Kernel takes its engine first and runs every loop on it.
func Kernel(eng *parallel.Engine, n int) int {
	eng.ForN(n, func(_, lo, hi int) {
		_, _ = lo, hi
	})
	return parallel.ReduceWith(eng, n, 0,
		func(lo, hi int, acc int) int { return acc + hi - lo },
		func(a, b int) int { return a + b })
}

// runner carries the engine through a struct; methods need no engine
// parameter.
type runner struct{ eng *parallel.Engine }

// Step runs on the carried engine.
func (r *runner) Step(n int) {
	r.eng.ForN(n, func(_, lo, hi int) {
		_, _ = lo, hi
	})
}
