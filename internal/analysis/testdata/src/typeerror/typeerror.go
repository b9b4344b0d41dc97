// Package typeerror does not type-check: Engine has no method Spin. The
// loader must refuse it rather than run the checks on partial types.
package typeerror

import "nwhy/internal/parallel"

// Fire calls a method the engine does not have.
func Fire(eng *parallel.Engine) {
	eng.Spin()
}
