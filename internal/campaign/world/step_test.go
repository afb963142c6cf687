package world

import (
	"context"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"github.com/reprolab/wrsn-csa/internal/campaign/ledger"
	"github.com/reprolab/wrsn-csa/internal/faults"
	"github.com/reprolab/wrsn-csa/internal/geom"
	"github.com/reprolab/wrsn-csa/internal/trace"
	"github.com/reprolab/wrsn-csa/internal/wrsn"
)

// Lockstep oracle for the fused world step. Two worlds over identically
// built networks receive the same random sequence of steps and
// between-step mutations (charges, including to the forecast's argmin
// and to just-depleted nodes, defense drains, fail/repair, cooldowns,
// served requests, sink outages). One steps with the production fused
// pass and forecast reuse; the other with refStep, the step as separate
// passes and fresh forecasts. At every step the fused pass's deaths,
// below-threshold list and (t, who) must equal the reference passes', the
// requests issued must be exactly the full scan's, every forecast the
// fused world consults must equal a fresh NextDepletion, and the two
// worlds' batteries, queues and ledgers must stay identical. Forecasts
// carried across a routing recompute by NextDepletionAfter are counted,
// and a run must have some.

// refResult is what refStep's separate passes found; tied reports that
// another survivor projected exactly the forecast time.
type refResult struct {
	died, low, eligible []wrsn.NodeID
	at                  float64
	who                 wrsn.NodeID
	tied                bool
}

// refStep is the world step without fusion or reuse: AdvanceEnergy, a
// below-threshold scan and a fresh NextDepletion over the drained
// network, then a full wantsCharge scan.
func refStep(w *W, target float64) refResult {
	var r refResult
	step := min(target, w.now+w.p.PollSec)
	if dt, _ := w.nw.NextDepletion(w.now); dt > w.now && dt < step {
		step = dt
	}
	r.died = w.nw.AdvanceEnergy(step - w.now)
	w.now = step
	for _, n := range w.nw.Nodes() {
		if n.Alive() && n.Battery.Level() <= w.p.RequestFrac*n.Battery.Capacity() {
			r.low = append(r.low, n.ID)
		}
	}
	r.at, r.who = w.nw.NextDepletion(w.now)
	for _, n := range w.nw.Nodes() {
		if d := w.nw.DrainWatts(n.ID); n.ID != r.who && n.Alive() && d > 0 && w.now+n.Battery.Level()/d == r.at {
			r.tied = true
		}
	}
	if len(r.died) > 0 {
		for _, id := range r.died {
			w.RecordDeath(id)
		}
		w.nw.Recompute()
	}
	if !w.sinkDown {
		for _, n := range w.nw.Nodes() {
			if w.wantsCharge(n.ID) {
				r.eligible = append(r.eligible, n.ID)
				w.issueRequest(n.ID)
			}
		}
	}
	w.Sample()
	w.audit()
	if w.nw.Policy() == wrsn.PolicyEnergyAware {
		w.nw.Recompute()
	}
	return r
}

// latticeNetwork is an exact integer lattice around a centered sink:
// mirror-image nodes get bit-identical drains, so with equal battery
// levels their depletion forecasts tie exactly.
func latticeNetwork() (*wrsn.Network, error) {
	const side = 8
	specs := make([]wrsn.NodeSpec, 0, side*side)
	for y := 0; y < side; y++ {
		for x := 0; x < side; x++ {
			specs = append(specs, wrsn.NodeSpec{Pos: geom.Point{X: float64(x) * 30, Y: float64(y) * 30}, InitialFrac: 0.34})
		}
	}
	return wrsn.NewNetwork(specs, wrsn.Config{Sink: geom.Point{X: 105, Y: 105}, CommRange: 45})
}

// chainNetwork is a line of nodes running away from the sink, each
// relaying for every node beyond it, with levels set so that the nodes
// would die leaf first, 600 s in and 30 s apart, so the first step can
// end at the first death before any random mutation cuts the chain. Each
// such death lowers the relay load, and so the drain, of the next
// argmin: its parent. A forecast carried across that recompute must see
// the argmin's drain change.
func chainNetwork() (*wrsn.Network, error) {
	const n = 12
	specs := make([]wrsn.NodeSpec, n)
	for i := range specs {
		specs[i] = wrsn.NodeSpec{Pos: geom.Point{X: float64(i+1) * 30}}
	}
	nw, err := wrsn.NewNetwork(specs, wrsn.Config{CommRange: 35})
	if err != nil {
		return nil, err
	}
	for i, node := range nw.Nodes() {
		node.Battery.SetLevel(nw.DrainWatts(node.ID) * 600 * (1 + 0.05*float64(n-1-i)))
	}
	return nw, nil
}

// scenarioNetwork builds a 60-node uniform deployment under the routing
// policy with levels drawn from seed, low enough that nodes request and
// die within the run.
func scenarioNetwork(policy wrsn.RoutingPolicy, seed int64) func() (*wrsn.Network, error) {
	return func() (*wrsn.Network, error) {
		sc := trace.DefaultScenario(11, 60)
		sc.Policy = policy
		nw, _, err := sc.Build()
		if err != nil {
			return nil, err
		}
		r := rand.New(rand.NewSource(seed))
		for _, n := range nw.Nodes() {
			n.Battery.SetLevel((0.05 + 0.5*r.Float64()) * n.Battery.Capacity())
		}
		nw.Recompute()
		return nw, nil
	}
}

// lockstepWorld builds a world with request loss armed, so issuance
// consumes a loss stream whose draw order the comparison pins.
func lockstepWorld(t *testing.T, build func() (*wrsn.Network, error)) *W {
	t.Helper()
	nw, err := build()
	if err != nil {
		t.Fatal(err)
	}
	plan := faults.New(faults.Spec{Seed: 5, RequestLossProb: 0.2}, nw.Len())
	return New(context.Background(), nw, ledger.New(), Params{
		PollSec:        900,
		RequestFrac:    wrsn.DefaultRequestFraction,
		SampleEverySec: 3600,
		AuditEverySec:  -1,
		Faults:         plan,
	}, nil)
}

// lockstepCoverage counts the situations the oracle must have exercised
// for a run to count.
type lockstepCoverage struct {
	deaths, reused, after, argminCharges, revivals, defenseDrains, requests, ties int
}

func TestFusedStepLockstep(t *testing.T) {
	cases := []struct {
		name  string
		build func() (*wrsn.Network, error)
		ties  bool
	}{
		{"uniform", scenarioNetwork(wrsn.PolicyShortestDistance, 3), false},
		{"energy-aware", scenarioNetwork(wrsn.PolicyEnergyAware, 4), false},
		{"lattice", latticeNetwork, true},
		{"chain", chainNetwork, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			fused, ref := lockstepWorld(t, tc.build), lockstepWorld(t, tc.build)
			cov := runLockstep(t, fused, ref, rand.New(rand.NewSource(21)), 600)
			if t.Failed() {
				return
			}
			t.Logf("coverage: %+v", cov)
			if cov.deaths == 0 || cov.reused == 0 || cov.after == 0 || cov.argminCharges == 0 ||
				cov.revivals == 0 || cov.defenseDrains == 0 || cov.requests == 0 {
				t.Errorf("oracle run missed a case: %+v", cov)
			}
			if tc.ties && cov.ties == 0 {
				t.Errorf("lattice run produced no exact forecast tie: %+v", cov)
			}
		})
	}
}

// runLockstep drives the two worlds through steps random steps and
// reports what it covered; the first divergence fails the test.
func runLockstep(t *testing.T, fused, ref *W, r *rand.Rand, steps int) lockstepCoverage {
	t.Helper()
	var cov lockstepCoverage
	target := 0.0
	for i := 0; i < steps; i++ {
		if fused.now >= target {
			target = fused.now + 3000*r.Float64()
		}
		if !checkForecast(t, fused, &cov, i, "step start") {
			return cov
		}
		fused.step(target)
		want := refStep(ref, target)
		got := fused.pass
		if !slices.Equal(got.Died, want.died) || !slices.Equal(got.Low, want.low) {
			t.Fatalf("step %d: fused died/low = %v/%v, separate passes %v/%v", i, got.Died, got.Low, want.died, want.low)
		}
		if got.NextAt != want.at || got.Next != want.who {
			t.Fatalf("step %d: fused forecast (%v, %d), fresh NextDepletion (%v, %d)", i, got.NextAt, got.Next, want.at, want.who)
		}
		if !subset(want.eligible, got.Low) {
			t.Fatalf("step %d: full scan found %v eligible, outside the below-threshold list %v", i, want.eligible, got.Low)
		}
		if want.tied {
			cov.ties++
		}
		cov.deaths += len(want.died)
		cov.requests += len(want.eligible)
		sameWorlds(t, fused, ref, i)
		// The forecast scheduleStep consults right after the step.
		if !checkForecast(t, fused, &cov, i, "after step") {
			return cov
		}
		if len(want.died) > 0 && r.Intn(2) == 0 {
			// A session's charge landing on a node that died during it.
			id, j := want.died[r.Intn(len(want.died))], 50*r.Float64()
			fused.nw.Charge(id, j)
			ref.nw.Charge(id, j)
			cov.revivals++
		}
		for k := r.Intn(3); k > 0; k-- {
			mutate(r, fused, ref, &cov)
		}
	}
	return cov
}

// checkForecast consults the fused world's forecast the way step and
// scheduleStep do and holds it to a fresh NextDepletion.
func checkForecast(t *testing.T, w *W, cov *lockstepCoverage, i int, where string) bool {
	t.Helper()
	switch {
	case w.forecastHolds():
		cov.reused++
	case w.argminHolds() && w.nw.Epoch() == w.fc.epoch+1:
		cov.after++
	}
	at, who := w.nextDepletion()
	fat, fwho := w.nw.NextDepletion(w.now)
	if at != fat || who != fwho {
		t.Errorf("step %d (%s): forecast (%v, %d), fresh NextDepletion (%v, %d)", i, where, at, who, fat, fwho)
		return false
	}
	return true
}

// mutate applies one random between-step event to both worlds.
func mutate(r *rand.Rand, fused, ref *W, cov *lockstepCoverage) {
	nodes := fused.nw.Nodes()
	pick := func(alive bool) (wrsn.NodeID, bool) {
		for tries := 0; tries < 20; tries++ {
			if id := wrsn.NodeID(r.Intn(len(nodes))); nodes[id].Alive() == alive {
				return id, true
			}
		}
		return 0, false
	}
	both := func(f func(w *W)) { f(fused); f(ref) }
	switch op := r.Intn(10); op {
	case 0, 1: // a charge to the forecast's argmin
		if _, who := fused.nw.NextDepletion(fused.now); who != wrsn.ParentNone {
			j := 2000 * r.Float64()
			both(func(w *W) { w.nw.Charge(who, j) })
			cov.argminCharges++
		}
	case 2: // a charge to any alive node
		if id, ok := pick(true); ok {
			j := 3000 * r.Float64()
			both(func(w *W) { w.nw.Charge(id, j) })
		}
	case 3: // a charge landing on a depleted node
		if id, ok := pick(false); ok && !nodes[id].Failed() {
			j := 50 * r.Float64()
			both(func(w *W) { w.nw.Charge(id, j) })
			cov.revivals++
		}
	case 4, 5: // a defense drain, often lethal
		if id, ok := pick(true); ok {
			j := nodes[id].Battery.Level() * (0.5 + r.Float64())
			both(func(w *W) { w.DrainNode(id, j) })
			cov.defenseDrains++
		}
	case 6: // a hardware fault or repair
		if id, ok := pick(true); ok && r.Intn(2) == 0 {
			both(func(w *W) { w.failNode(int(id)) })
		} else if id, ok := pick(false); ok {
			both(func(w *W) { w.repairNode(int(id)) })
		}
	case 7: // a served request, with its cooldown
		if p := fused.qu.Pending(); len(p) > 0 {
			id := p[r.Intn(len(p))].Node
			until := fused.now + 5000*r.Float64()
			both(func(w *W) {
				w.qu.Remove(id)
				w.SetCooldown(id, until)
			})
		}
	case 8: // a sink outage opening or closing
		both(func(w *W) {
			if w.sinkDown {
				w.sinkRestore()
			} else {
				w.sinkOutage(w.now + 3600)
			}
		})
	case 9: // nothing between these steps
	}
}

// sameWorlds compares the state the two worlds must share bit for bit.
func sameWorlds(t *testing.T, a, b *W, i int) {
	t.Helper()
	if a.now != b.now {
		t.Fatalf("step %d: clocks %v vs %v", i, a.now, b.now)
	}
	for id, n := range a.nw.Nodes() {
		m := b.nw.Nodes()[id]
		if n.Battery.Level() != m.Battery.Level() || n.Failed() != m.Failed() {
			t.Fatalf("step %d: node %d level/failed %v/%v vs %v/%v", i, id, n.Battery.Level(), n.Failed(), m.Battery.Level(), m.Failed())
		}
	}
	if !reflect.DeepEqual(a.qu.Pending(), b.qu.Pending()) {
		t.Fatalf("step %d: queues diverged:\n%v\n%v", i, a.qu.Pending(), b.qu.Pending())
	}
	if a.led.Issued != b.led.Issued || len(a.led.Audit.Deaths) != len(b.led.Audit.Deaths) ||
		!reflect.DeepEqual(a.led.Faults, b.led.Faults) {
		t.Fatalf("step %d: ledgers diverged: issued %d/%d, deaths %d/%d", i,
			a.led.Issued, b.led.Issued, len(a.led.Audit.Deaths), len(b.led.Audit.Deaths))
	}
}

// subset reports whether every element of a (ascending) is in b
// (ascending).
func subset(a, b []wrsn.NodeID) bool {
	j := 0
	for _, id := range a {
		for j < len(b) && b[j] < id {
			j++
		}
		if j == len(b) || b[j] != id {
			return false
		}
	}
	return true
}
