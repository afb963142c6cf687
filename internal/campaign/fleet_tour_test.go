package campaign

import (
	"context"
	"fmt"
	"math"
	"testing"

	"github.com/reprolab/wrsn-csa/internal/charging"
	"github.com/reprolab/wrsn-csa/internal/mc"
	"github.com/reprolab/wrsn-csa/internal/sim"
	"github.com/reprolab/wrsn-csa/internal/snapshot"
	"github.com/reprolab/wrsn-csa/internal/trace"
	"github.com/reprolab/wrsn-csa/internal/wrsn"
)

// TestFleetToursStayWithTheirPlanner holds a PeriodicTSP fleet to one
// scheduler per charger: every tour stop a charger is sent to comes from
// a tour planned from that charger's own position. The run is replayed
// from its checkpoint stream (a capture after every engine event). At
// each dispatch that assigns charger i a request, a fresh PeriodicTSP
// kept for charger i alone is asked to pick over the same unreserved
// queue, from where the charger stood before the dispatch, and must name
// the node the run assigned. A scheduler shared by the fleet hands one
// charger the rest of a tour planned from another, and the picks part.
func TestFleetToursStayWithTheirPlanner(t *testing.T) {
	sc := trace.DefaultScenario(42, 400)
	sc.Deploy.InitialFracMin, sc.Deploy.InitialFracMax = 0.12, 0.5
	nw, _, err := sc.Build()
	if err != nil {
		t.Fatal(err)
	}
	chargers := mc.New(nw.Sink(), mc.DefaultParams()).Fleet(2)
	own := make([]charging.PeriodicTSP, len(chargers))
	var (
		prev     *snapshot.CampaignState
		next     []sim.PendingEvent // prev's queue in execution order
		assigned int
	)
	sink := func(s *snapshot.Snapshot) error {
		cs := s.Campaign()
		if prev != nil && len(next) > 0 && next[0].Kind == fleetDispatchKind {
			i := next[0].Arg
			fc := cs.Fleet.Chargers[i]
			reserved := make(map[wrsn.NodeID]bool)
			for _, id := range cs.Fleet.Reserved {
				reserved[id] = true
			}
			enRoute := fc.Phase == snapshot.FleetEnRoute && fc.Req != nil
			if enRoute {
				delete(reserved, fc.Req.Node) // reserved by this dispatch
			}
			view := charging.NewQueue(nw.Len())
			for _, r := range cs.World.Requests {
				if reserved[r.Node] {
					continue
				}
				req := charging.Request{Node: r.Node, Pos: nw.Pos(r.Node), IssuedAt: r.IssuedAt, Deadline: math.Inf(1), NeedJ: r.NeedJ}
				if err := view.Add(req); err != nil {
					t.Fatal(err)
				}
			}
			got, ok := own[i].Next(&view, prev.Fleet.Chargers[i].Charger.Pos, s.ClockSec())
			if enRoute {
				assigned++
				if !ok || got.Node != fc.Req.Node {
					return fmt.Errorf("t=%v: charger %d was sent to node %d; its own tour's next stop is node %d (ok=%v)",
						s.ClockSec(), i, fc.Req.Node, got.Node, ok)
				}
			}
		}
		prev, next = cs, s.PendingEvents()
		return nil
	}
	cfg := Config{Seed: 42, Scheduler: "PeriodicTSP", Checkpoint: &CheckpointPlan{Scenario: sc, Sink: sink}}
	if _, err := RunLegitFleet(context.Background(), nw, chargers, cfg); err != nil {
		t.Fatal(err)
	}
	if assigned < 50 {
		t.Fatalf("only %d assignments checked; the run exercised too few tours", assigned)
	}
	t.Logf("%d assignments checked", assigned)
}
