package graph

import "nwhy/internal/parallel"

// What the external test package (presets and benchmark, which import
// packages that import this one) needs from the inside.

// BetweennessWith is BetweennessCentrality with the kernel choice pinned:
// "rule", "matrix" or "sparse".
func BetweennessWith(eng *parallel.Engine, g *Graph, normalized bool, kernel string) []float64 {
	return betweenness(eng, g, normalized, kernelChoices[kernel])
}

// CentralitiesWith is ClosenessCentrality, HarmonicClosenessCentrality and
// Eccentricity with the kernel choice pinned: "rule", "matrix" or "sparse".
func CentralitiesWith(eng *parallel.Engine, g *Graph, kernel string) (clo, harm, ecc []float64) {
	return centralitiesWith(eng, g, kernelChoices[kernel])
}

// ParentBetweennessCentrality is the routine of parent_test.go.
var ParentBetweennessCentrality = parentBetweennessCentrality

// MatrixPays is the rule.
var MatrixPays = matrixPays

// LargestComponent reports the vertices and arcs of g's largest component,
// as the rule is asked about it.
func LargestComponent(g *Graph) (nc, arcs int) {
	planComponents(g, func(n, a int) bool {
		if n > nc {
			nc, arcs = n, a
		}
		return false
	})
	return nc, arcs
}

// TakeBetweennessWork returns and zeroes the work counts of the bit-matrix
// states stashed in eng's arenas.
func TakeBetweennessWork(eng *parallel.Engine) (wordOps, dagArcs int) {
	forEachStashed(eng, bitBrandesStateKey, func(v any) {
		st := v.(*bitBrandesState)
		wordOps, dagArcs = wordOps+st.wordOps, dagArcs+st.dagArcs
		st.wordOps, st.dagArcs = 0, 0
	})
	return wordOps, dagArcs
}

// TakeLevelWork returns and zeroes the matrix words read by the
// level-histogram states stashed in eng's arenas.
func TakeLevelWork(eng *parallel.Engine) (wordOps int) {
	forEachStashed(eng, bitLevelStateKey, func(v any) {
		st := v.(*bitLevelState)
		wordOps += st.wordOps
		st.wordOps = 0
	})
	return wordOps
}
