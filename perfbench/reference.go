package main

import (
	"slices"
	"time"
)

// A shared VM host can change speed by up to 1.5x over minutes, with the
// load of other tenants, and the time of identical work changes with it. So
// the end-to-end times are scaled to a reference speed: the benchmark times
// a fixed kernel that uses only the standard library, which no change to the
// program can speed up, around each set-up and between ops, and multiplies
// each time by refNominalMS over the kernel's median time around the set-ups
// (for setup_s) or between the ops (for op times).

// refNominalMS is the kernel's median time on a 2.1 GHz Xeon vCPU of a
// lightly loaded host.
const refNominalMS = 3.0

// refEvery is how often, in wall time between ops, the kernel runs.
const refEvery = 250 * time.Millisecond

// refKernel sorts a slice filled from a xorshift stream: branchy,
// cache-resident work, whose speed tracked the workloads' CPU time best among
// the kernels tried (an arithmetic loop and a 64 MB pointer chase tracked
// it less).
type refKernel struct{ xs []uint64 }

func newRefKernel() *refKernel { return &refKernel{xs: make([]uint64, 1<<15)} }

// run does the work once and returns its wall time in ms.
func (k *refKernel) run() float64 {
	t0 := time.Now()
	x := uint64(88172645463325252)
	for i := range k.xs {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		k.xs[i] = x
	}
	slices.Sort(k.xs)
	return ms(time.Since(t0))
}
