// Package facade stands in for the module root — the one package allowed
// to reach for the process-wide shared engine.
package facade

import "nwhy/internal/parallel"

// Run grabs the shared engine and drives a kernel with it.
func Run(n int) int {
	eng := parallel.SharedEngine()
	count := 0
	eng.ForN(1, func(_, _, _ int) { count = n })
	return count
}
