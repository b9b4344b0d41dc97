package slinegraph

import (
	"nwhy/internal/parallel"
	"nwhy/internal/sparse"
)

// The paper's queue-based algorithms, expressed as kernel wrappers pinning
// the schedule axis to the dynamic work queue (parallel.WorkQueue, promoted
// out of this package). Algorithm 2's two phases — enqueue candidate pairs,
// then set-intersect each — are fused into the kernel's single pass with an
// inner intersection per candidate: the pair queue becomes the per-worker
// candidate list of the intersection counter, and the result is identical.

// orderQueue applies the Options to the work queue contents: relabel-by-
// degree becomes a simple sort of the queue (no physical CSR relabeling
// needed — the versatility argument for the queue-based algorithms), and
// cyclic partitioning becomes a round-robin interleave of the queue order.
func orderQueue(eng *parallel.Engine, queue []uint32, in Input, o Options) []uint32 {
	queue = sortByDegree(queue, in, o.Relabel)
	if o.Partition == CyclicPartition {
		bins := eng.Cyclic(0, len(queue), 0).MaxStride // the engine's default
		if bins > len(queue) {
			bins = len(queue)
		}
		if bins > 1 {
			out := make([]uint32, 0, len(queue))
			for b := 0; b < bins; b++ {
				for i := b; i < len(queue); i += bins {
					out = append(out, queue[i])
				}
			}
			copy(queue, out)
		}
	}
	return queue
}

// QueueHashmap is the paper's Algorithm 1: a single-phase queue-based
// s-line-graph construction using hashmap counting. All hyperedge IDs —
// original, permuted, or adjoin shared-space — are enqueued into a work
// queue; workers fetch IDs, tally overlap counts against every
// higher-ID neighbor through the two-level incidence walk, and emit pairs
// whose tally reaches s. Enqueuing is linear in |E|, so the complexity
// matches the non-queue Hashmap algorithm.
func QueueHashmap(eng *parallel.Engine, in Input, s int, o Options) ([]sparse.Edge, error) {
	o.Counter = HashmapCounter
	o.Schedule = QueueSchedule
	return Construct(eng, in, s, o)
}

// QueueIntersection is the paper's Algorithm 2: queue-based s-line-graph
// construction via candidate set-intersection. Candidate pairs are
// deduplicated per source hyperedge with a stamp array and each candidate's
// incidence list is sorted-merge intersected with e's, short-circuiting at
// s common hypernodes (the kernel fuses the paper's two phases into one
// pass; the emitted pair set is identical).
func QueueIntersection(eng *parallel.Engine, in Input, s int, o Options) ([]sparse.Edge, error) {
	o.Counter = IntersectionCounter
	o.Schedule = QueueSchedule
	return Construct(eng, in, s, o)
}
