package world

import (
	"context"
	"fmt"
	"math"

	"github.com/reprolab/wrsn-csa/internal/campaign/ledger"
	"github.com/reprolab/wrsn-csa/internal/charging"
	"github.com/reprolab/wrsn-csa/internal/faults"
	"github.com/reprolab/wrsn-csa/internal/obs"
	"github.com/reprolab/wrsn-csa/internal/sim"
	"github.com/reprolab/wrsn-csa/internal/wrsn"
)

// RequestState is charging.Request in wire-safe form: Deadline rides as
// a pointer because a zero-drain node's "never dies" projection is +Inf,
// which JSON cannot carry (absent means +Inf).
type RequestState struct {
	Node     wrsn.NodeID `json:"node"`
	IssuedAt float64     `json:"issued_at"`
	Deadline *float64    `json:"deadline,omitempty"`
	NeedJ    float64     `json:"need_j"`
}

// requestState converts one queue entry.
func requestState(r charging.Request) RequestState {
	rs := RequestState{Node: r.Node, IssuedAt: r.IssuedAt, NeedJ: r.NeedJ}
	if !math.IsInf(r.Deadline, 1) {
		d := r.Deadline
		rs.Deadline = &d
	}
	return rs
}

// RequestStateOf converts a queue entry to its wire form; the fleet
// layer uses it to checkpoint an in-flight assignment.
func RequestStateOf(r charging.Request) RequestState { return requestState(r) }

// Request rebuilds the queue entry; the node position is re-resolved
// from the network (positions are immutable, so this is exact).
func (rs RequestState) Request(nw *wrsn.Network) (charging.Request, error) {
	n, err := nw.Node(rs.Node)
	if err != nil {
		return charging.Request{}, err
	}
	req := charging.Request{Node: rs.Node, Pos: n.Pos, IssuedAt: rs.IssuedAt, Deadline: math.Inf(1), NeedJ: rs.NeedJ}
	if rs.Deadline != nil {
		req.Deadline = *rs.Deadline
	}
	return req, nil
}

// State is the world's serializable mid-run form: the clock, the pending
// request queue (in the canonical sorted order every consumer reads),
// cadence cursors, fault-window state, and the fault plan's incremental
// loss-stream position. Key-node marks are not here — the campaign layer
// re-marks them from its own captured list on resume. Derived network
// state (routing, drains) is not here either: wrsn.FromState recomputes
// it bit-identically from primary state.
type State struct {
	Now        float64        `json:"now"`
	Requests   []RequestState `json:"requests,omitempty"`
	Cool       []float64      `json:"cool,omitempty"`
	NextSample float64        `json:"next_sample,omitempty"`
	NextAudit  float64        `json:"next_audit,omitempty"`
	Auditing   bool           `json:"auditing,omitempty"`
	StepTarget float64        `json:"step_target,omitempty"`

	ChDown      bool    `json:"ch_down,omitempty"`
	ChDownSince float64 `json:"ch_down_since,omitempty"`
	ChDownUntil float64 `json:"ch_down_until,omitempty"`
	ChDownTotal float64 `json:"ch_down_total,omitempty"`
	SinkDown    bool    `json:"sink_down,omitempty"`
	SinkSince   float64 `json:"sink_since,omitempty"`

	RetxAttempt []int     `json:"retx_attempt,omitempty"`
	RetxNext    []float64 `json:"retx_next,omitempty"`

	FaultLoss *[4]uint64 `json:"fault_loss,omitempty"`
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
	for _, req := range w.qu.Pending() {
		st.Requests = append(st.Requests, requestState(req))
	}
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
	n := len(nw.Nodes())
	nw.SetRequestFraction(p.RequestFrac)
	w := &W{
		ctx:    ctx,
		eng:    sim.New(),
		nw:     nw,
		led:    led,
		p:      p,
		probe:  obs.Or(probe),
		qu:     charging.NewQueue(n),
		cool:   make([]float64, n),
		keySet: make([]bool, n),
		low:    make([]wrsn.NodeID, 0, n),
	}
	w.bindStep()
	if !p.Faults.Empty() {
		w.plan = p.Faults
		w.retxAttempt = make([]int, n)
		w.retxNext = make([]float64, n)
		faults.Bind(w.plan, w.eng, faults.Hooks{
			Sync:        w.CatchUp,
			NodeDown:    w.failNode,
			NodeUp:      w.repairNode,
			ChargerDown: w.chargerDown,
			ChargerUp:   w.chargerUp,
			SinkDown:    w.sinkOutage,
			SinkUp:      w.sinkRestore,
		})
		if st.FaultLoss != nil {
			w.plan.RestoreLoss(*st.FaultLoss)
		}
	}
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
	for _, rs := range st.Requests {
		req, err := rs.Request(nw)
		if err != nil {
			return nil, fmt.Errorf("world: resume: request for node %d: %w", rs.Node, err)
		}
		if err := w.qu.Add(req); err != nil {
			return nil, fmt.Errorf("world: resume: re-queue node %d: %w", rs.Node, err)
		}
	}
	if err := w.eng.ResumeAt(st.Now); err != nil {
		return nil, fmt.Errorf("world: resume: %w", err)
	}
	return w, nil
}
