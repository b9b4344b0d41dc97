package main

import (
	"runtime"
	"time"
)

// The host this benchmark runs on is a shared two-vCPU virtual machine
// whose speed wanders by 10-40 % over minutes, for every workload at once
// (baseline/SPREADS.md): two sets of runs of the same code, recorded back
// to back, then differ by more than any bound a metric may carry. A wall
// time alone therefore measures the neighbours as much as the program.
//
// So every run also times a fixed reference kernel — the benchmark's own
// code, never the program's — between its operations, and reports each
// end-to-end time as measured × (reference duration ÷ median duration of
// the kernel in this run): the time the run would have taken on the host
// at reference speed. Rates are scaled the other way. The raw values and
// the kernel's median are printed beside them (and bench.calibration_ms is
// a per-layer metric), so the correction is always visible.
//
// What wanders is the memory system (shared cache and bus), not the cores:
// a register-only loop is steady to 2 % while random accesses past the
// private caches swing by a factor of two. The program's pipelines sit in
// between, so the kernel is a fixed mix of both kinds of work, on both
// workers at once: register arithmetic, updates inside a cache-resident
// table (hash-map counting on small rows), independent and dependent random
// accesses to a table far past the caches (CSR scatter, neighbour walks)
// and one streaming pass over it (file parse, CSR copy). A kernel of memory
// accesses alone over-corrects: it slows down about twice as much as the
// pipelines do.

const (
	calSmallWords = 1 << 16 // 256 KB per worker: inside the private cache
	calBigWords   = 1 << 23 // 32 MB per worker: far past every cache
	// calibrationRefMs is the kernel's duration at reference speed: its
	// median on the host the benchmark was defined on, in a quiet spell.
	// It only fixes the scale of the reported times; comparisons between
	// two runs do not depend on it.
	calibrationRefMs = 30.0
)

// calibrator times the reference kernel; one calibrator serves one phase
// of a run, and its factor corrects that phase's timings.
type calibrator struct {
	eng     *engine
	small   [engineWorkers][]uint32
	big     [engineWorkers][]uint32
	sink    [engineWorkers]uint64
	samples []float64
}

func newCalibrator(eng *engine) *calibrator {
	c := &calibrator{eng: eng}
	for i := range c.big {
		c.small[i], c.big[i] = make([]uint32, calSmallWords), make([]uint32, calBigWords)
	}
	return c
}

// fresh returns a calibrator for another phase that shares the tables.
func (c *calibrator) fresh() *calibrator {
	return &calibrator{eng: c.eng, small: c.small, big: c.big}
}

// sample runs the kernel once on every worker and records how long it
// took. It first lets the collector finish, so that no cycle started by
// the program's garbage runs beside the kernel: a change that allocates
// more must not make the host look slower.
func (c *calibrator) sample() {
	runtime.GC()
	seed := uint64(len(c.samples))*engineWorkers + 1
	t0 := time.Now()
	runConcurrently(c.eng, engineWorkers, func(i int) {
		c.sink[i] += calKernel(c.small[i], c.big[i], seed+uint64(i))
	})
	c.samples = append(c.samples, ms(time.Since(t0)))
}

func xorshift(x uint64) uint64 {
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	return x
}

// calKernel is the reference work of one worker; each of its five parts
// takes 5-7 ms on the reference host.
func calKernel(small, big []uint32, seed uint64) uint64 {
	x := seed*0x9E3779B97F4A7C15 | 1
	for i := 0; i < 3_000_000; i++ { // registers only
		x = xorshift(x)
	}
	update := func(tab []uint32, steps int) {
		mask := uint64(len(tab) - 1)
		for i := 0; i < steps; i++ {
			x = xorshift(x)
			tab[x&mask] += uint32(x >> 32)
		}
	}
	update(small, 2_000_000) // cache-resident updates
	update(big, 350_000)     // independent random updates
	mask := uint64(len(big) - 1)
	p := x & mask
	for i := 0; i < 45_000; i++ { // dependent random loads
		p = (p*6364136223846793005 + uint64(big[p]) + uint64(i)) & mask
	}
	sum := p
	for _, v := range big { // one streaming pass
		sum += uint64(v)
	}
	return sum + x
}

// medianMs is the kernel's median duration over the phase.
func (c *calibrator) medianMs() float64 { return median(c.samples) }

// factor is what a duration measured in this phase is multiplied by (and a
// rate divided by) to read as on the host at reference speed.
func (c *calibrator) factor() float64 { return calibrationRefMs / c.medianMs() }
