package world

import (
	"context"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"github.com/reprolab/wrsn-csa/internal/campaign/ledger"
	"github.com/reprolab/wrsn-csa/internal/energy"
	"github.com/reprolab/wrsn-csa/internal/faults"
	"github.com/reprolab/wrsn-csa/internal/geom"
	"github.com/reprolab/wrsn-csa/internal/trace"
	"github.com/reprolab/wrsn-csa/internal/wrsn"
)

// Lockstep oracle for the lazy world step. Two worlds over identically
// built networks receive the same random sequence of steps and
// between-step mutations (charges, including to the forecast's argmin
// and to just-depleted nodes, defense drains, fail/repair, cooldowns,
// served requests, sink outages). One steps with the production step,
// whose network syncs only the nodes it must; the other with refStep,
// which reads every node's level after every drain, so its network
// replays one step per node per step — the dense drain — and which
// takes the low list, the forecast and the eligible set from full scans
// in test code. At every step the deaths, the low and connected list
// and the forecast must agree, the requests issued must be exactly the
// full scan's, and the two worlds' levels, queues and ledgers must stay
// identical. The production world's levels are compared through a Fork,
// which replays each node's backlog into its copy, so the comparison
// leaves the production network as lazy as the step left it.

// refResult is what refStep's full scans found; tied reports that
// another survivor projected exactly the forecast time.
type refResult struct {
	died, low, eligible []wrsn.NodeID
	at                  float64
	who                 wrsn.NodeID
	tied                bool
}

// denseForecast is NextDepletion as a full scan: the minimum of
// now + Level/DrainWatts over the alive nodes with positive drain, ties
// to the lowest ID. It reads every level through the syncing accessor.
func denseForecast(w *W) (at float64, who wrsn.NodeID, tied bool) {
	at, who = math.Inf(1), wrsn.ParentNone
	for i := range w.nw.Len() {
		id := wrsn.NodeID(i)
		d := w.nw.DrainWatts(id)
		if !w.nw.Alive(id) || d <= 0 {
			continue
		}
		if t := w.st.Now + w.nw.Level(id)/d; t < at {
			at, who, tied = t, id, false
		} else if t == at {
			tied = true
		}
	}
	return at, who, tied
}

// refStep is the world step with every node synced at every step and
// every list taken from a full scan.
func refStep(t *testing.T, w *W, target float64) refResult {
	t.Helper()
	var r refResult
	step := min(target, w.st.Now+w.p.PollSec)
	if dt, _, _ := denseForecast(w); dt > w.st.Now && dt < step {
		step = dt
	}
	alive := make([]bool, w.nw.Len())
	for i := range alive {
		alive[i] = w.nw.Alive(wrsn.NodeID(i))
	}
	died := w.nw.AdvanceEnergy(step - w.st.Now)
	w.st.Now = step
	for i := range alive {
		// Deaths come from the levels, not the live bit: the live bit
		// falls only when the network's deaths heap pops the node.
		if id := wrsn.NodeID(i); alive[i] && w.nw.Level(id) <= energy.DepletedEpsJ {
			r.died = append(r.died, id)
		}
	}
	if !slices.Equal(died, r.died) {
		t.Fatalf("AdvanceEnergy reports %v died, the levels say %v", died, r.died)
	}
	r.at, r.who, r.tied = denseForecast(w)
	if len(r.died) > 0 {
		for _, id := range r.died {
			w.RecordDeath(id)
		}
		w.nw.Recompute()
	}
	for i := range w.nw.Len() {
		id := wrsn.NodeID(i)
		if w.nw.Alive(id) && w.nw.Connected(id) && w.nw.Level(id) <= w.p.RequestFrac*w.nw.Capacity(id) {
			r.low = append(r.low, id)
		}
	}
	if !w.st.SinkDown {
		for _, id := range r.low {
			if w.wantsCharge(id) {
				r.eligible = append(r.eligible, id)
				w.issueRequest(id)
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
	for i := range nw.Len() {
		id := wrsn.NodeID(i)
		nw.SetLevel(id, nw.DrainWatts(id)*600*(1+0.05*float64(n-1-i)))
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
		for i := range nw.Len() {
			id := wrsn.NodeID(i)
			nw.SetLevel(id, (0.05+0.5*r.Float64())*nw.Capacity(id))
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
	deaths, argminCharges, revivals, defenseDrains, requests, ties int
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
			if cov.deaths == 0 || cov.argminCharges == 0 ||
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
		if fused.st.Now >= target {
			target = fused.st.Now + 3000*r.Float64()
		}
		if !sameForecast(t, fused, ref, i, "step start") {
			return cov
		}
		deaths := len(fused.led.Audit.Deaths)
		fused.step(target)
		want := refStep(t, ref, target)
		var died []wrsn.NodeID
		for _, d := range fused.led.Audit.Deaths[deaths:] {
			died = append(died, d.Node)
		}
		if !slices.Equal(died, want.died) {
			t.Fatalf("step %d: lazy step died %v, dense step %v", i, died, want.died)
		}
		if !fused.st.SinkDown && !slices.Equal(fused.low, want.low) {
			t.Fatalf("step %d: lazy low and connected list %v, full scan %v", i, fused.low, want.low)
		}
		if want.tied {
			cov.ties++
		}
		cov.deaths += len(want.died)
		cov.requests += len(want.eligible)
		sameWorlds(t, fused, ref, i)
		// The forecast scheduleStep consults right after the step.
		if !sameForecast(t, fused, ref, i, "after step") {
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

// sameForecast holds the lazy world's forecast, as step and
// scheduleStep consult it, to the reference world's full scan.
func sameForecast(t *testing.T, fused, ref *W, i int, where string) bool {
	t.Helper()
	at, who := fused.nw.NextDepletion(fused.st.Now)
	fat, fwho, _ := denseForecast(ref)
	if at != fat || who != fwho {
		t.Errorf("step %d (%s): lazy forecast (%v, %d), full scan (%v, %d)", i, where, at, who, fat, fwho)
		return false
	}
	return true
}

// mutate applies one random between-step event to both worlds.
func mutate(r *rand.Rand, fused, ref *W, cov *lockstepCoverage) {
	nw := fused.nw
	pick := func(alive bool) (wrsn.NodeID, bool) {
		for tries := 0; tries < 20; tries++ {
			if id := wrsn.NodeID(r.Intn(nw.Len())); nw.Alive(id) == alive {
				return id, true
			}
		}
		return 0, false
	}
	both := func(f func(w *W)) { f(fused); f(ref) }
	switch op := r.Intn(10); op {
	case 0, 1: // a charge to the forecast's argmin
		if _, who := fused.nw.NextDepletion(fused.st.Now); who != wrsn.ParentNone {
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
		if id, ok := pick(false); ok && !nw.Failed(id) {
			j := 50 * r.Float64()
			both(func(w *W) { w.nw.Charge(id, j) })
			cov.revivals++
		}
	case 4, 5: // a defense drain, often lethal
		if id, ok := pick(true); ok {
			j := nw.Level(id) * (0.5 + r.Float64())
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
			until := fused.st.Now + 5000*r.Float64()
			both(func(w *W) {
				w.qu.Remove(id)
				w.SetCooldown(id, until)
			})
		}
	case 8: // a sink outage opening or closing
		both(func(w *W) {
			if w.st.SinkDown {
				w.sinkRestore()
			} else {
				w.sinkOutage(w.st.Now + 3600)
			}
		})
	case 9: // nothing between these steps
	}
}

// sameWorlds compares the state the two worlds must share bit for bit,
// reading the lazy world's levels off a fork.
func sameWorlds(t *testing.T, a, b *W, i int) {
	t.Helper()
	if a.st.Now != b.st.Now {
		t.Fatalf("step %d: clocks %v vs %v", i, a.st.Now, b.st.Now)
	}
	for k, n := range a.nw.Fork().State().Nodes {
		id, m := wrsn.NodeID(k), b.nw
		if n.LevelJ != m.Level(id) || n.Failed != m.Failed(id) || a.nw.Alive(id) != m.Alive(id) {
			t.Fatalf("step %d: node %d level/failed %v/%v vs %v/%v", i, id, n.LevelJ, n.Failed, m.Level(id), m.Failed(id))
		}
		// A node is in service exactly when it is not failed and its
		// level, replayed to now, is above the depletion mark.
		if want := !m.Failed(id) && m.Level(id) > energy.DepletedEpsJ; m.Alive(id) != want {
			t.Fatalf("step %d: node %d alive %v at level %v, failed %v", i, id, m.Alive(id), m.Level(id), m.Failed(id))
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
