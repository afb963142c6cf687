package policy

import (
	"github.com/reprolab/wrsn-csa/internal/attack"
	"github.com/reprolab/wrsn-csa/internal/charging"
	"github.com/reprolab/wrsn-csa/internal/wrsn"
)

// Legit is the uncompromised on-demand service: the charger serves
// requests under the configured scheduler until the horizon or budget
// exhaustion. It is both the lifetime baseline and the negative sample
// for detector ROC curves.
type Legit struct{}

// NewLegit returns the legitimate service policy.
func NewLegit() *Legit { return &Legit{} }

// Name labels the baseline.
func (*Legit) Name() string { return "legit" }

// Bootstrap is empty: honest service plans nothing.
func (*Legit) Bootstrap(*Env) error { return nil }

// Planned returns nil: there is no attack plan.
func (*Legit) Planned() *attack.Result { return nil }

// OnRequest accepts everything: honest service has no blocklist.
func (*Legit) OnRequest(*Env, charging.Request) bool { return true }

// OnArrival always charges genuinely.
func (*Legit) OnArrival(*Env, wrsn.NodeID) charging.SessionKind {
	return charging.SessionFocus
}

// NextAction serves the scheduler's pick off the live queue, waits a poll
// step when the queue is empty, and finishes at the horizon or on budget
// exhaustion. A broken-down charger parks until its scheduled repair.
func (*Legit) NextAction(e *Env, prev Result) (Action, error) {
	if prev == Stopped || e.W.Now() >= e.W.Params().HorizonSec {
		return Done{}, nil
	}
	if act, ok := e.breakdownWait(); ok {
		return act, nil
	}
	req, ok := e.PickLive()
	if !ok {
		return e.pollWait(), nil
	}
	return Serve{Req: req, Strict: true}, nil
}
