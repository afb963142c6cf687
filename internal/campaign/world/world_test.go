package world

import (
	"context"
	"math"
	"testing"

	"github.com/reprolab/wrsn-csa/internal/campaign/ledger"
	"github.com/reprolab/wrsn-csa/internal/faults"
	"github.com/reprolab/wrsn-csa/internal/sim"
	"github.com/reprolab/wrsn-csa/internal/trace"
	"github.com/reprolab/wrsn-csa/internal/wrsn"
)

// testWorld builds a small world over the default scenario with the
// given hand-built fault plan.
func testWorld(t *testing.T, ctx context.Context, plan *faults.Plan) (*W, *ledger.L, *wrsn.Network) {
	t.Helper()
	nw, _, err := trace.DefaultScenario(7, 60).Build()
	if err != nil {
		t.Fatal(err)
	}
	led := ledger.New()
	w := New(ctx, nw, led, Params{
		PollSec:     900,
		RequestFrac: wrsn.DefaultRequestFraction,
		Faults:      plan,
	}, nil)
	return w, led, nw
}

// TestCatchUpReentrancy: fault handlers run inside engine events and
// their Sync hook calls CatchUp mid-pump, while the world.step chain is
// itself advancing via CatchUp. Fault times deliberately land off the
// poll grid so every fault event interleaves with a step event at a
// different timestamp. The chain must survive and land exactly on the
// advance target.
func TestCatchUpReentrancy(t *testing.T) {
	plan := &faults.Plan{Events: []faults.Event{
		{T: 1234.5, Kind: faults.NodeDown, Node: 3, Until: 5000.5},
		{T: 2000.1, Kind: faults.ChargerDown, Node: -1, Until: 3500.9},
		{T: 3500.9, Kind: faults.ChargerUp, Node: -1},
		{T: 5000.5, Kind: faults.NodeUp, Node: 3},
		{T: 6100.3, Kind: faults.SinkDown, Node: -1, Until: 7200.7},
		{T: 7200.7, Kind: faults.SinkUp, Node: -1},
	}}
	w, led, nw := testWorld(t, context.Background(), plan)

	// Advance in two legs, the first stopping inside the outage window.
	w.AdvanceTo(6500, nil)
	if got := w.Now(); got != 6500 {
		t.Fatalf("Now() = %v after AdvanceTo(6500)", got)
	}
	if !w.st.SinkDown {
		t.Error("sink outage window not open at t=6500")
	}
	w.AdvanceTo(10000, nil)
	if got := w.Now(); got != 10000 {
		t.Fatalf("Now() = %v after AdvanceTo(10000)", got)
	}
	if w.st.SinkDown {
		t.Error("sink outage window still open after its SinkUp event")
	}
	if led.Faults.NodeFailures != 1 || led.Faults.NodeRecoveries != 1 {
		t.Errorf("node fault counts = %d/%d, want 1/1",
			led.Faults.NodeFailures, led.Faults.NodeRecoveries)
	}
	if led.Faults.ChargerBreakdowns != 1 || led.Faults.ChargerRepairs != 1 {
		t.Errorf("charger fault counts = %d/%d, want 1/1",
			led.Faults.ChargerBreakdowns, led.Faults.ChargerRepairs)
	}
	if want := 3500.9 - 2000.1; math.Abs(w.ChargerDownSecTotal()-want) > 1e-9 {
		t.Errorf("ChargerDownSecTotal = %v, want %v", w.ChargerDownSecTotal(), want)
	}
	if nw.Failed(3) {
		t.Error("node 3 still hardware-failed after its NodeUp event")
	}
	w.Close()
	if want := 7200.7 - 6100.3; math.Abs(led.Faults.SinkDownSec-want) > 1e-9 {
		t.Errorf("SinkDownSec = %v, want %v", led.Faults.SinkDownSec, want)
	}
}

// TestCatchUpReentrantCall: CatchUp called from inside an engine handler
// (the fleet's dispatch pattern) while fault events are in flight must
// not double-step or stall the step chain.
func TestCatchUpReentrantCall(t *testing.T) {
	plan := &faults.Plan{Events: []faults.Event{
		{T: 950.5, Kind: faults.ChargerDown, Node: -1, Until: 1800.5},
		{T: 1800.5, Kind: faults.ChargerUp, Node: -1},
	}}
	w, led, _ := testWorld(t, context.Background(), plan)
	var sawDown bool
	w.Engine().Bind("test.reentrant", func(e *sim.Engine, _ int) {
		w.CatchUp(e.Now())
		sawDown = w.ChargerDownUntil() > 0
	})
	if err := w.Engine().AtKeyed(1000, "test.reentrant", 0, "test.reentrant"); err != nil {
		t.Fatal(err)
	}
	w.AdvanceTo(3000, nil)
	if got := w.Now(); got != 3000 {
		t.Fatalf("Now() = %v after AdvanceTo(3000)", got)
	}
	if !sawDown {
		t.Error("handler-side CatchUp did not observe the already-applied breakdown")
	}
	if led.Faults.ChargerBreakdowns != 1 || led.Faults.ChargerRepairs != 1 {
		t.Errorf("charger fault counts = %d/%d, want 1/1",
			led.Faults.ChargerBreakdowns, led.Faults.ChargerRepairs)
	}
}

// TestCancelMidFaultWindow: a context canceled while a fault window is
// open stops the advance at the next boundary, and Close still accounts
// the open window's downtime up to the stopped clock.
func TestCancelMidFaultWindow(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	plan := &faults.Plan{Events: []faults.Event{
		{T: 1000.5, Kind: faults.ChargerDown, Node: -1, Until: 90000},
		{T: 2000.5, Kind: faults.SinkDown, Node: -1, Until: 90000},
	}}
	w, led, _ := testWorld(t, ctx, plan)
	w.AdvanceTo(1500, nil)
	if w.ChargerDownUntil() != 90000 {
		t.Fatalf("breakdown window not open: until = %v", w.ChargerDownUntil())
	}
	cancel()
	w.AdvanceTo(50000, nil)
	if !w.Canceled() {
		t.Fatal("Canceled() = false after cancel")
	}
	if w.Now() > 2400 {
		t.Errorf("Now() = %v; canceled advance ran on", w.Now())
	}
	stopped := w.Now()
	w.Close()
	if want := stopped - 1000.5; math.Abs(led.Faults.ChargerDownSec-want) > 1e-9 {
		t.Errorf("ChargerDownSec = %v, want %v (downtime up to the stopped clock)",
			led.Faults.ChargerDownSec, want)
	}
	// The never-repaired window stays fatal: injected but not survived.
	if led.Faults.ChargerRepairs != 0 {
		t.Errorf("ChargerRepairs = %d for a window that never closed", led.Faults.ChargerRepairs)
	}
	if led.Faults.Fatal() == 0 {
		t.Error("open windows at cancel must count as fatal")
	}
}

// TestCatchUpAfterCancelIsNoOp: CatchUp on a canceled world must return
// immediately without moving the clock.
func TestCatchUpAfterCancelIsNoOp(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	w, _, _ := testWorld(t, ctx, nil)
	w.AdvanceTo(3000, nil)
	cancel()
	before := w.Now()
	w.CatchUp(9000)
	if w.Now() != before {
		t.Errorf("CatchUp moved a canceled world: %v -> %v", before, w.Now())
	}
}

// TestFaultOnUnknownNodeIsNoOp: a fault plan event naming no node of
// the network — negative, or past the last ID — fires as a no-op, like
// a draw landing on a node already down, while the in-range events of
// the same plan still apply.
func TestFaultOnUnknownNodeIsNoOp(t *testing.T) {
	plan := &faults.Plan{Events: []faults.Event{
		{T: 100, Kind: faults.NodeDown, Node: -1, Until: 300},
		{T: 150, Kind: faults.NodeDown, Node: 60, Until: 400},
		{T: 200, Kind: faults.NodeDown, Node: 5, Until: 500},
		{T: 300, Kind: faults.NodeUp, Node: -1},
		{T: 400, Kind: faults.NodeUp, Node: 1 << 30},
		{T: 500, Kind: faults.NodeUp, Node: 5},
	}}
	w, led, nw := testWorld(t, context.Background(), plan)
	w.AdvanceTo(1000, nil)
	if led.Faults.NodeFailures != 1 || led.Faults.NodeRecoveries != 1 {
		t.Errorf("node fault counts = %d/%d, want 1/1 (only node 5's)",
			led.Faults.NodeFailures, led.Faults.NodeRecoveries)
	}
	if nw.Len() != 60 || nw.Failed(5) {
		t.Errorf("network of %d nodes, node 5 failed %v after its NodeUp", nw.Len(), nw.Failed(5))
	}
}
