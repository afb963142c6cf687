package policy

import (
	"fmt"
	"slices"

	"github.com/reprolab/wrsn-csa/internal/attack"
	"github.com/reprolab/wrsn-csa/internal/wrsn"
)

// State is a policy's serializable checkpoint form: the phase-machine
// fields of the concrete policy, the Env's shared target bookkeeping
// (sorted, so capture order never depends on map iteration), and the
// drive-loop position the barrier carried. The legit policy is stateless
// and contributes only its name and the loop position.
type State struct {
	// Policy is "legit" or the attack solver name.
	Policy string
	// Stage/Prev/WaitUntil record the drive-loop Barrier.
	Stage     string
	Prev      int
	WaitUntil float64

	// Attacker phase machine; zero for legit.
	Phase    int
	Honest   bool
	Idx      int
	Pending  []attack.Site
	Engaged  []wrsn.NodeID
	Instance *attack.Instance
	Result   *attack.Result

	// Env bookkeeping.
	Targets []wrsn.NodeID
	Blocked []wrsn.NodeID
}

// sortedIDs flattens a node-ID set deterministically.
func sortedIDs(set map[wrsn.NodeID]bool) []wrsn.NodeID {
	if len(set) == 0 {
		return nil
	}
	ids := make([]wrsn.NodeID, 0, len(set))
	for id := range set {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	return ids
}

// CaptureState snapshots the policy's phase machine, the Env's target
// sets, and the barrier's loop position. Slices are copied; the Instance
// and Result pointers are shared, which is safe because both are
// immutable after Bootstrap.
func CaptureState(pol Policy, e *Env, b Barrier) (*State, error) {
	st := &State{
		Policy:    pol.Name(),
		Stage:     b.Stage,
		Prev:      int(b.Prev),
		WaitUntil: b.WaitUntil,
		Targets:   sortedIDs(e.Targets),
		Blocked:   sortedIDs(e.Blocked),
	}
	switch p := pol.(type) {
	case *Legit:
	case *Attacker:
		st.Phase = int(p.phase)
		st.Honest = p.honest
		st.Idx = p.idx
		st.Pending = append([]attack.Site(nil), p.pending...)
		st.Engaged = sortedIDs(p.engaged)
		st.Instance = p.in
		res := p.res
		st.Result = &res
	default:
		return nil, fmt.Errorf("policy: %T does not support checkpointing", pol)
	}
	return st, nil
}

// FromState rebuilds the policy and refills the Env's target sets. It
// returns the restored policy and the drive-loop barrier to resume at. A
// state naming a node the Env's network does not have, or a plan stop
// its instance does not have, is rejected: checkpoints arrive from
// outside the process, and the policy indexes the network by these IDs.
// So is a Prev that is neither OK nor Stopped, which NextAction would
// branch on although no run produces it.
func FromState(st *State, e *Env) (Policy, Barrier, error) {
	b := Barrier{Stage: st.Stage, Prev: Result(st.Prev), WaitUntil: st.WaitUntil}
	switch b.Stage {
	case StageLoop, StageWait, StageFinal:
	default:
		return nil, b, fmt.Errorf("policy: state has unknown stage %q", st.Stage)
	}
	if b.Prev != OK && b.Prev != Stopped {
		return nil, b, fmt.Errorf("policy: state has Prev %d, want %d (OK) or %d (Stopped)", st.Prev, OK, Stopped)
	}
	if err := st.check(e.W.Network()); err != nil {
		return nil, b, err
	}
	for _, id := range st.Targets {
		e.Targets[id] = true
	}
	for _, id := range st.Blocked {
		e.Blocked[id] = true
	}
	if st.Policy == "legit" {
		return NewLegit(), b, nil
	}
	if !attack.KnownSolver(st.Policy) {
		return nil, b, fmt.Errorf("%w: %q in checkpoint state", attack.ErrUnknownSolver, st.Policy)
	}
	p := NewAttacker(st.Policy)
	p.phase = phase(st.Phase)
	p.honest = st.Honest
	p.idx = st.Idx
	p.pending = append([]attack.Site(nil), st.Pending...)
	if st.Engaged != nil || p.windowAware {
		p.engaged = make(map[wrsn.NodeID]bool, len(st.Engaged))
		for _, id := range st.Engaged {
			p.engaged[id] = true
		}
	}
	p.in = st.Instance
	if st.Result != nil {
		p.res = *st.Result
	}
	return p, b, nil
}

// check holds every node ID and plan stop of the state to the network it
// resumes on.
func (st *State) check(nw *wrsn.Network) error {
	var sites []attack.Site
	if st.Instance != nil {
		sites = st.Instance.Sites
	}
	ids := append(append(append([]wrsn.NodeID(nil), st.Targets...), st.Blocked...), st.Engaged...)
	for _, list := range [][]attack.Site{st.Pending, sites} {
		for _, s := range list {
			ids = append(ids, s.Node)
		}
	}
	for _, id := range ids {
		if !nw.Has(id) {
			return fmt.Errorf("policy: state names node %d, out of range [0,%d)", id, nw.Len())
		}
	}
	if st.Result != nil {
		for _, stop := range st.Result.Plan.Schedule {
			if stop.Site < 0 || stop.Site >= len(sites) {
				return fmt.Errorf("policy: state plan stop names site %d, out of range [0,%d)", stop.Site, len(sites))
			}
		}
	}
	return nil
}
