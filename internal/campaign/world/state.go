package world

import (
	"context"
	"fmt"

	"github.com/reprolab/wrsn-csa/internal/campaign/ledger"
	"github.com/reprolab/wrsn-csa/internal/charging"
	"github.com/reprolab/wrsn-csa/internal/faults"
	"github.com/reprolab/wrsn-csa/internal/obs"
	"github.com/reprolab/wrsn-csa/internal/wrsn"
)

// State is the world's serializable mid-run form: the clock, the pending
// request queue (in the canonical sorted order every consumer reads),
// cadence cursors, fault-window state, and the fault plan's incremental
// loss-stream position. Key-node marks are not here — the campaign layer
// re-marks them from its own captured list on resume. Derived network
// state (routing, drains) is not here either: wrsn.FromState recomputes
// it bit-identically from primary state.
type State struct {
	Now        float64
	Requests   []charging.Request
	Cool       []float64
	NextSample float64
	NextAudit  float64
	Auditing   bool
	StepTarget float64

	ChDown      bool
	ChDownSince float64
	ChDownUntil float64
	ChDownTotal float64
	SinkDown    bool
	SinkSince   float64

	RetxAttempt []int
	RetxNext    []float64

	FaultLoss *[4]uint64
}

// State captures the world at a checkpoint barrier. Capture is pure
// reads: the continuing run is not perturbed.
func (w *W) State() State {
	st := State{
		Now:         w.now,
		Cool:        append([]float64(nil), w.cool...),
		NextSample:  w.nextSample,
		NextAudit:   w.nextAudit,
		Auditing:    w.auditing,
		StepTarget:  w.stepTarget,
		ChDown:      w.chDown,
		ChDownSince: w.chDownSince,
		ChDownUntil: w.chDownUntil,
		ChDownTotal: w.chDownTotal,
		SinkDown:    w.sinkDown,
		SinkSince:   w.sinkSince,
		RetxAttempt: append([]int(nil), w.retxAttempt...),
		RetxNext:    append([]float64(nil), w.retxNext...),
		FaultLoss:   w.plan.LossState(),
	}
	st.Requests = append(st.Requests, w.qu.Pending()...)
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
	w := build(ctx, nw, led, p, probe)
	if w.plan != nil {
		faults.Bind(w.plan, w.eng, w.faultHooks())
		if st.FaultLoss != nil {
			w.plan.RestoreLoss(*st.FaultLoss)
		}
	}
	n := nw.Len()
	if len(st.Cool) > n {
		return nil, fmt.Errorf("world: resume: cooldown table has %d entries for %d nodes", len(st.Cool), n)
	}
	copy(w.cool, st.Cool)
	if w.retxAttempt != nil {
		copy(w.retxAttempt, st.RetxAttempt)
		copy(w.retxNext, st.RetxNext)
	}
	w.now = st.Now
	w.nextSample = st.NextSample
	w.nextAudit = st.NextAudit
	w.auditing = st.Auditing
	w.stepTarget = st.StepTarget
	w.chDown = st.ChDown
	w.chDownSince = st.ChDownSince
	w.chDownUntil = st.ChDownUntil
	w.chDownTotal = st.ChDownTotal
	w.sinkDown = st.SinkDown
	w.sinkSince = st.SinkSince
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
