// Package clean routes all concurrency through the engine's pool.
package clean

import (
	"sync"

	"nwhy/internal/parallel"
)

// Fire schedules the task on the engine's pool.
func Fire(eng *parallel.Engine, done chan struct{}) {
	var wg sync.WaitGroup
	wg.Add(1)
	eng.Go(func(int) {
		close(done)
	}, &wg)
	wg.Wait()
}
