package campaign

import (
	"context"
	"testing"

	"github.com/reprolab/wrsn-csa/internal/mc"
	"github.com/reprolab/wrsn-csa/internal/trace"
)

// TestScaleSmoke runs a 10k-node legit campaign over a short horizon —
// the large-N configuration the scale work exists for. It asserts
// completion and that the run produced real dynamics (requests), not
// silence.
func TestScaleSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("10k-node campaign is too heavy for -short")
	}
	const seed, n = 7, 10_000
	nw, _, err := trace.DefaultScenario(seed, n).Build()
	if err != nil {
		t.Fatal(err)
	}
	ch := mc.New(nw.Sink(), mc.DefaultParams())
	o, err := RunLegit(context.Background(), nw, ch, Config{
		Seed:       seed,
		HorizonSec: 2 * 24 * 3600,
		PollSec:    1800,
	})
	if err != nil {
		t.Fatal(err)
	}
	if o.RequestsIssued == 0 {
		t.Fatal("10k-node run issued no charging requests")
	}
}
