package world

import (
	"context"
	"fmt"
	"testing"

	"github.com/reprolab/wrsn-csa/internal/campaign/ledger"
	"github.com/reprolab/wrsn-csa/internal/trace"
	"github.com/reprolab/wrsn-csa/internal/wrsn"
)

// BenchmarkWorldStep times the world layer alone: one simulated day of
// 900 s poll-tick steps (plus any depletion-driven boundaries) through
// the event engine, over a built world with no policy serving it. Every
// op starts from a fork of the same template, made outside the timed
// region, so every op does the same work: the drain, the request scan,
// the depletion forecasts, and the routing recomputes after the day's
// deaths. Batteries start between 20% and 90%, so nodes cross the
// request threshold and some die within the day.
func BenchmarkWorldStep(b *testing.B) {
	for _, n := range []int{1000, 10_000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			sc := trace.DefaultScenario(42, n)
			sc.Deploy.InitialFracMin, sc.Deploy.InitialFracMax = 0.2, 0.9
			tmpl, _, err := sc.Build()
			if err != nil {
				b.Fatal(err)
			}
			p := Params{PollSec: 900, RequestFrac: wrsn.DefaultRequestFraction, AuditEverySec: -1}
			b.ReportAllocs()
			// The template build is set-up, not an op: left on the clock it
			// lands in the timed total once per call and its share of
			// ns/op and allocs/op shrinks as b.N grows.
			b.ResetTimer()
			var issued, deaths int
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				led := ledger.New()
				w := New(context.Background(), tmpl.Fork(), led, p, nil)
				b.StartTimer()
				w.AdvanceTo(24*3600, nil)
				issued += led.Issued
				deaths += len(led.Audit.Deaths)
			}
			b.ReportMetric(float64(issued)/float64(b.N), "requests/op")
			b.ReportMetric(float64(deaths)/float64(b.N), "deaths/op")
		})
	}
}
