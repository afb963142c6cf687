package detect_test

import (
	"context"
	"testing"

	"github.com/reprolab/wrsn-csa/internal/campaign"
	"github.com/reprolab/wrsn-csa/internal/detect"
	"github.com/reprolab/wrsn-csa/internal/mc"
	"github.com/reprolab/wrsn-csa/internal/trace"
)

// BenchmarkJudge is the sink's audit alone: the standard detector suite
// over the final audit of a 14-day attack campaign on a 200-node world
// (built outside the timed loop). The live audit runs the same suite
// over the growing audit once a day, so this is the upper end of one
// audit's cost.
func BenchmarkJudge(b *testing.B) {
	nw, _, err := trace.DefaultScenario(42, 200).Build()
	if err != nil {
		b.Fatal(err)
	}
	o, err := campaign.RunAttack(context.Background(), nw, mc.New(nw.Sink(), mc.DefaultParams()), campaign.Config{Seed: 42})
	if err != nil {
		b.Fatal(err)
	}
	audit, suite := o.Audit, detect.Suite()
	if len(audit.Sessions) == 0 {
		b.Fatal("attack campaign left an empty audit")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		detect.Judge(audit, suite)
	}
	b.ReportMetric(float64(len(audit.Sessions)), "sessions")
}
