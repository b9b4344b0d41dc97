// Package clean routes all concurrency through the engine's pool.
package clean

import "nwhy/internal/parallel"

// Fire runs the task as a loop on the engine's pool.
func Fire(eng *parallel.Engine, done chan struct{}) {
	eng.ForN(1, func(_, _, _ int) {
		close(done)
	})
}
