package main

import (
	"math"
	"sort"
	"time"
)

// The host's speed is not constant. On a shared 2-vCPU VM the same op
// runs up to ~2× slower for stretches of under a second to minutes, with no
// steal recorded: a neighbour takes the physical core's issue slots. A
// latency-bound loop (one dependency chain, or a pointer chase) does not
// see it; throughput-bound code, the program's included, does.
//
// The in-process workloads therefore run a fixed probe on the same
// thread right before and right after each op: benchmark-owned integer
// code with eight independent dependency chains, no memory traffic and
// no allocation, so nothing the program does can change its cost except
// the core's speed. Each op's times are scaled to the speed at which one
// probe takes probeNominalMS, by the mean of its two probes raised to the
// workload's sensitivity. The unscaled figures are printed beside them.

// probeNominalMS is the probe time the scaled figures are reported at:
// about the probe's time on a vCPU of the 2-vCPU Intel Xeon KVM host the
// sensitivities were fitted on, in a stretch when its core is not shared.
const probeNominalMS = 0.15

// probeRuns short runs of the probe kernel make one probe. Their median
// counts, so a hypervisor steal slice or a preemption that lands in one
// of them does not read as a slow core.
const probeRuns = 5

// probe returns the probe time in ms. It sorts in place rather than
// calling median, so it allocates nothing the traced run's rt counts
// would see.
func probe() float64 {
	var ms [probeRuns]float64
	for i := range ms {
		ms[i] = probeKernel()
	}
	sort.Float64s(ms[:])
	return ms[probeRuns/2]
}

// probeKernel runs the probe's integer code once and returns its time in
// ms.
func probeKernel() float64 {
	t := time.Now()
	var a, b, c, d, e, f, g, h uint64 = 1, 2, 3, 4, 5, 6, 7, 8
	for i := 0; i < 36_000; i++ {
		a ^= a << 13
		b ^= b << 13
		c ^= c << 13
		d ^= d << 13
		e ^= e << 13
		f ^= f << 13
		g ^= g << 13
		h ^= h << 13
		a ^= a >> 7
		b ^= b >> 7
		c ^= c >> 7
		d ^= d >> 7
		e ^= e >> 7
		f ^= f >> 7
		g ^= g >> 7
		h ^= h >> 7
		a += b
		c += d
		e += f
		g += h
	}
	probeSink += a + c + e + g
	return time.Since(t).Seconds() * 1000
}

// probeSink keeps the compiler from dropping the probe's work.
var probeSink uint64

// speedScale is the factor that takes a time measured between two
// probes to the nominal speed. sensitivity is how strongly the measured
// code follows the probe: its time grows as the probe's time to that
// power (1 for code as throughput-bound as the probe, less for code that
// waits on memory).
func speedScale(before, after, sensitivity float64) float64 {
	return math.Pow(probeNominalMS/((before+after)/2), sensitivity)
}
