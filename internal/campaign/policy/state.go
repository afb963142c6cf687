package policy

import (
	"fmt"
	"math"
	"slices"

	"github.com/reprolab/wrsn-csa/internal/attack"
	"github.com/reprolab/wrsn-csa/internal/wrsn"
)

// State is a policy's serializable checkpoint form and the state the
// attacker runs on: its phase machine, its plan, its target lists, and
// the drive-loop position the barrier carried. An Attacker holds one, so
// capture copies it and resume adopts it. The legit policy is stateless
// and contributes only its name and the loop position.
type State struct {
	// Policy is "legit" or the attack solver name.
	Policy string
	// Stage/Prev/WaitUntil record the drive-loop Barrier; a running
	// attacker leaves them unread, and CaptureState stamps them.
	Stage     string
	Prev      int
	WaitUntil float64

	// Attacker phase machine; zero for legit. Phase is one of the
	// attacker's phases; Honest flips when the impounded charger's
	// honest replacement takes over, which ends spoof-on-request and
	// serves every request genuinely; Idx is the next stop of the
	// window-unaware schedule; Pending holds the window-aware targets
	// still to strike. Engaged holds every target the window-aware
	// attacker took on, so progressive recruiting never adds one twice.
	Phase    int
	Honest   bool
	Idx      int
	Pending  []attack.Site
	Engaged  []wrsn.NodeID
	Instance *attack.Instance
	Result   *attack.Result

	// Targets holds the attack's spoof targets; the opportunistic fill
	// never genuinely serves them. Blocked holds the targets the attacker
	// must not genuinely serve yet; a target leaves it once spoofed (a
	// post-drift re-request gets a genuine charge — the kill is lost,
	// stealth is not) or once its window is irrecoverably missed.
	Targets []wrsn.NodeID
	Blocked []wrsn.NodeID
}

// Targets, Blocked and Engaged are node IDs in strictly ascending order,
// so membership is a binary search and capture order never depends on
// the order targets joined.

// has reports whether the ascending list ids holds id.
func has(ids []wrsn.NodeID, id wrsn.NodeID) bool {
	_, ok := slices.BinarySearch(ids, id)
	return ok
}

// insert adds id to the ascending list ids unless it is there.
func insert(ids []wrsn.NodeID, id wrsn.NodeID) []wrsn.NodeID {
	if i, ok := slices.BinarySearch(ids, id); !ok {
		ids = slices.Insert(ids, i, id)
	}
	return ids
}

// remove drops id from the ascending list ids.
func remove(ids []wrsn.NodeID, id wrsn.NodeID) []wrsn.NodeID {
	if i, ok := slices.BinarySearch(ids, id); ok {
		ids = slices.Delete(ids, i, i+1)
	}
	return ids
}

// clone returns a copy of st that owns its lists, each empty one nil as
// the checkpoint form writes it. Instance and Result stay shared: both
// are immutable after Bootstrap.
func (st *State) clone() State {
	c := *st
	c.Pending = own(st.Pending)
	c.Engaged = own(st.Engaged)
	c.Targets = own(st.Targets)
	c.Blocked = own(st.Blocked)
	return c
}

// own returns a copy of s, or nil when s is empty.
func own[T any](s []T) []T {
	if len(s) == 0 {
		return nil
	}
	return slices.Clone(s)
}

// CaptureState snapshots the policy's state at barrier b: the attacker's
// own State, copied, stamped with the barrier's loop position.
func CaptureState(pol Policy, b Barrier) (*State, error) {
	var st State
	switch p := pol.(type) {
	case *Legit:
		st.Policy = p.Name()
	case *Attacker:
		st = p.st.clone()
	default:
		return nil, fmt.Errorf("policy: %T does not support checkpointing", pol)
	}
	st.Stage, st.Prev, st.WaitUntil = b.Stage, int(b.Prev), b.WaitUntil
	return &st, nil
}

// FromState rebuilds the policy from a checkpoint state, adopting a copy
// of it, and returns the drive-loop barrier to resume at. Checkpoints
// arrive from outside the process, so a state no run reaches is refused
// with an error naming the field (see validate).
func FromState(st *State, nw *wrsn.Network) (Policy, Barrier, error) {
	b := Barrier{Stage: st.Stage, Prev: Result(st.Prev), WaitUntil: st.WaitUntil}
	if err := st.validate(nw); err != nil {
		return nil, b, fmt.Errorf("policy: state %w", err)
	}
	if st.Policy == "legit" {
		return NewLegit(), b, nil
	}
	if !attack.KnownSolver(st.Policy) {
		return nil, b, fmt.Errorf("%w: %q in checkpoint state", attack.ErrUnknownSolver, st.Policy)
	}
	if st.Instance == nil || st.Result == nil {
		return nil, b, fmt.Errorf("policy: attack state lacks its Instance or Result")
	}
	p := NewAttacker(st.Policy)
	p.st = st.clone()
	return p, b, nil
}

// validate reports the first field of st that no run on nw reaches: an
// unknown Stage; a Prev that is neither OK nor Stopped, which NextAction
// would branch on; a non-finite WaitUntil at a wait barrier, which the
// resumed advance would chase; a Phase outside the attacker's six, which
// would end the run at once; a negative Idx, which would index the
// schedule; a non-finite site Dur or Pos, which a session would run for
// or travel to, or plan stop Begin, which the window-unaware attacker
// would wait for; a target list out of strictly ascending order, which
// the membership searches rely on; and a node or plan stop the network
// or instance does not have, since the policy indexes both by these IDs.
func (st *State) validate(nw *wrsn.Network) error {
	switch {
	case st.Stage != StageLoop && st.Stage != StageWait && st.Stage != StageFinal:
		return fmt.Errorf("has unknown stage %q", st.Stage)
	case Result(st.Prev) != OK && Result(st.Prev) != Stopped:
		return fmt.Errorf("has Prev %d, want %d (OK) or %d (Stopped)", st.Prev, OK, Stopped)
	case st.Stage == StageWait && !finite(st.WaitUntil):
		return fmt.Errorf("has WaitUntil %v at a wait barrier", st.WaitUntil)
	case st.Phase < phTargets || st.Phase > phHonest:
		return fmt.Errorf("has Phase %d, out of range [%d,%d]", st.Phase, phTargets, phHonest)
	case st.Idx < 0:
		return fmt.Errorf("has negative Idx %d", st.Idx)
	}
	var sites []attack.Site
	if st.Instance != nil {
		sites = st.Instance.Sites
	}
	for _, l := range []struct {
		name  string
		sites []attack.Site
	}{{"Pending", st.Pending}, {"Instance.Sites", sites}} {
		for i, s := range l.sites {
			switch {
			case !nw.Has(s.Node):
				return fmt.Errorf("names node %d in %s, out of range [0,%d)", s.Node, l.name, nw.Len())
			case !finite(s.Dur):
				return fmt.Errorf("has %s[%d].Dur %v", l.name, i, s.Dur)
			case !finite(s.Pos.X) || !finite(s.Pos.Y):
				return fmt.Errorf("has %s[%d].Pos %v", l.name, i, s.Pos)
			}
		}
	}
	for _, l := range []struct {
		name string
		ids  []wrsn.NodeID
	}{{"Targets", st.Targets}, {"Blocked", st.Blocked}, {"Engaged", st.Engaged}} {
		for i, id := range l.ids {
			if i > 0 && id <= l.ids[i-1] {
				return fmt.Errorf("has %s not strictly ascending at index %d", l.name, i)
			}
			if !nw.Has(id) {
				return fmt.Errorf("names node %d in %s, out of range [0,%d)", id, l.name, nw.Len())
			}
		}
	}
	if st.Result != nil {
		for i, stop := range st.Result.Plan.Schedule {
			switch {
			case stop.Site < 0 || stop.Site >= len(sites):
				return fmt.Errorf("plan stop names site %d, out of range [0,%d)", stop.Site, len(sites))
			case !finite(stop.Begin):
				return fmt.Errorf("has Result.Plan.Schedule[%d].Begin %v", i, stop.Begin)
			}
		}
	}
	return nil
}

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }
