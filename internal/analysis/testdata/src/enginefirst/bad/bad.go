// Package bad violates the engine-first discipline in every way the check
// recognizes: a shared-engine reference outside the facade, package-level
// engine bindings, and an engine parameter that is not first.
package bad

import "nwhy/internal/parallel"

var shared = parallel.SharedEngine() // want engine-first engine-first

var cached *parallel.Engine // want engine-first

// BadOrder takes the engine second instead of first.
func BadOrder(n int, eng *parallel.Engine) { // want engine-first
	eng.ForN(n, func(_, lo, hi int) {
		_, _ = lo, hi
	})
}
