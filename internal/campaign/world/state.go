package world

import (
	"context"
	"fmt"
	"math"

	"github.com/reprolab/wrsn-csa/internal/campaign/ledger"
	"github.com/reprolab/wrsn-csa/internal/charging"
	"github.com/reprolab/wrsn-csa/internal/faults"
	"github.com/reprolab/wrsn-csa/internal/obs"
	"github.com/reprolab/wrsn-csa/internal/wrsn"
)

// State is the world's serializable mid-run form and the state a live
// world runs on: the clock, the pending request queue (in the canonical
// sorted order every consumer reads), cadence cursors, fault-window
// state, and the fault plan's incremental loss-stream position. A live
// world keeps Requests and FaultLoss nil, since its queue and fault plan
// own them; W.State fills both in its copy. Key-node marks are not here —
// the campaign layer re-marks them from its own captured list on resume.
// Derived network state (routing, drains) is not here either:
// wrsn.FromState recomputes it bit-identically from primary state.
type State struct {
	Now      float64
	Requests []charging.Request
	// Cool is the dense per-node cooldown table (node IDs are the
	// contiguous 0..n-1 range); 0 means no cooldown.
	Cool       []float64
	NextSample float64
	NextAudit  float64
	Auditing   bool
	// StepTarget is where the in-flight step chain is headed; the chain's
	// single keyed handler re-reads it on every event, so re-targeting is
	// a field write.
	StepTarget float64

	ChDown      bool
	ChDownSince float64
	ChDownUntil float64
	ChDownTotal float64
	SinkDown    bool
	SinkSince   float64

	// RetxAttempt/RetxNext are the dense per-node retransmission tables,
	// nil on fault-free runs so the hot path stays a nil check.
	RetxAttempt []int
	RetxNext    []float64

	FaultLoss *[4]uint64
}

// State captures the world at a checkpoint barrier. Capture is pure
// reads: the continuing run is not perturbed.
func (w *W) State() State {
	st := w.st
	st.Cool = append([]float64(nil), w.st.Cool...)
	st.RetxAttempt = append([]int(nil), w.st.RetxAttempt...)
	st.RetxNext = append([]float64(nil), w.st.RetxNext...)
	st.Requests = append([]charging.Request(nil), w.qu.Pending()...)
	st.FaultLoss = w.plan.LossState()
	return st
}

// Resume rebuilds a world from a captured state. The caller provides the
// same Params the original run used (in particular a freshly built fault
// plan from the same Spec — New(spec, nodes) is pure, so the event list
// is identical; the loss cursor is then repositioned from the state).
// Fault handlers and the step chain are bound but nothing is scheduled:
// the caller restores the captured pending events into the engine, which
// carries both the step chain and the not-yet-fired fault events.
func Resume(ctx context.Context, nw *wrsn.Network, led *ledger.L, p Params, probe obs.Probe, st State) (*W, error) {
	if err := st.validate(nw.Len(), !p.Faults.Empty()); err != nil {
		return nil, fmt.Errorf("world: resume: %w", err)
	}
	w := build(ctx, nw, led, p, probe)
	if w.plan != nil {
		faults.Bind(w.plan, w.eng, w.faultHooks())
		if st.FaultLoss != nil {
			w.plan.RestoreLoss(*st.FaultLoss)
		}
	}
	// The captured tables are copied into the run's own n-sized ones;
	// everything else is adopted as captured.
	own := w.st
	copy(own.Cool, st.Cool)
	copy(own.RetxAttempt, st.RetxAttempt)
	copy(own.RetxNext, st.RetxNext)
	w.st = st
	w.st.Cool, w.st.RetxAttempt, w.st.RetxNext = own.Cool, own.RetxAttempt, own.RetxNext
	w.st.Requests, w.st.FaultLoss = nil, nil
	for _, req := range st.Requests {
		req, err := RestoreRequest(nw, req)
		if err != nil {
			return nil, fmt.Errorf("world: resume: %w", err)
		}
		if err := w.qu.Add(req); err != nil {
			return nil, fmt.Errorf("world: resume: re-queue node %d: %w", req.Node, err)
		}
	}
	if err := w.eng.ResumeAt(st.Now); err != nil {
		return nil, fmt.Errorf("world: resume: %w", err)
	}
	return w, nil
}

// validate reports the first field of st that no world of n nodes, with
// or without a fault plan, can hold. The snapshot codec decodes "NaN"
// and "±Inf", and a resumed run would otherwise carry them into its
// Outcome. Every float must be finite, except that a request's deadline
// may be +Inf (a node that does not drain never dies).
func (st *State) validate(n int, faulted bool) error {
	switch {
	case len(st.Cool) > n:
		return fmt.Errorf("Cool table has %d entries for %d nodes", len(st.Cool), n)
	case !faulted && len(st.RetxAttempt)+len(st.RetxNext) > 0:
		return fmt.Errorf("RetxAttempt/RetxNext tables present without a fault plan")
	case faulted && (len(st.RetxAttempt) != n || len(st.RetxNext) != n):
		return fmt.Errorf("RetxAttempt/RetxNext tables have %d/%d entries, want %d under a fault plan", len(st.RetxAttempt), len(st.RetxNext), n)
	}
	for _, f := range []struct {
		name string
		vs   []float64
	}{
		{"Now", []float64{st.Now}}, {"NextSample", []float64{st.NextSample}},
		{"NextAudit", []float64{st.NextAudit}}, {"StepTarget", []float64{st.StepTarget}},
		{"ChDownSince", []float64{st.ChDownSince}}, {"ChDownUntil", []float64{st.ChDownUntil}},
		{"ChDownTotal", []float64{st.ChDownTotal}}, {"SinkSince", []float64{st.SinkSince}},
		{"Cool", st.Cool}, {"RetxNext", st.RetxNext},
	} {
		for _, v := range f.vs {
			if !finite(v) {
				return fmt.Errorf("%s holds %v", f.name, v)
			}
		}
	}
	for _, r := range st.Requests {
		if !finite(r.IssuedAt) || !finite(r.NeedJ) || math.IsNaN(r.Deadline) {
			return fmt.Errorf("Requests: node %d has IssuedAt %v, Deadline %v, NeedJ %v", r.Node, r.IssuedAt, r.Deadline, r.NeedJ)
		}
	}
	return nil
}

// finite reports whether v is neither NaN nor infinite.
func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// RestoreRequest checks a captured request against the network it
// resumes on: an out-of-range node is an error, and the position is
// taken from the network, which is exact because positions never
// change. The fleet restores its in-flight assignments through it too.
func RestoreRequest(nw *wrsn.Network, req charging.Request) (charging.Request, error) {
	if !nw.Has(req.Node) {
		return charging.Request{}, fmt.Errorf("request for node %d: out of range [0,%d)", req.Node, nw.Len())
	}
	req.Pos = nw.Pos(req.Node)
	return req, nil
}
