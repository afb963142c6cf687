package wrsn_test

import (
	"fmt"
	"testing"

	"github.com/reprolab/wrsn-csa/internal/trace"
)

// BenchmarkAdvanceEnergyPass times the sequential world step's energy
// layer alone — the lazy drain with its deaths, threshold crossings and
// low set, then the depletion forecast — over the campaign package's
// large10k deployment (scenario seed 42, batteries at 12–50%, so about
// half the nodes sit below the 30% request threshold, scattered by ID).
// Each op is one step; ns/node divides it by the node count, so it
// reads against the dense pass this benchmark timed before the drain
// went lazy. The request scan that walks the low set is the world's and
// is timed by BenchmarkWorldStep. A step drains one millisecond, so a
// one-second run simulates a few minutes at most, well inside the
// shortest remaining lifetime (about 15 minutes at 10k nodes, 100 at
// 1k): no node dies, and every op sees the deployment's own mix of
// nodes above and below the threshold.
func BenchmarkAdvanceEnergyPass(b *testing.B) {
	const dt = 1e-3
	for _, n := range []int{1000, 10_000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			sc := trace.DefaultScenario(42, n)
			sc.Deploy.InitialFracMin, sc.Deploy.InitialFracMax = 0.12, 0.5
			nw, _, err := sc.Build()
			if err != nil {
				b.Fatal(err)
			}
			now := 0.0
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				now += dt
				nw.AdvanceEnergy(dt)
				nw.NextDepletion(now)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/node")
		})
	}
}
