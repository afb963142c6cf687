package testbed

import (
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"github.com/reprolab/wrsn-csa/internal/energy"
	"github.com/reprolab/wrsn-csa/internal/wpt"
)

// NodeAgent is one emulated sensor node: it owns a battery, drains it on a
// virtual clock, requests charging below threshold, and rectifies whatever
// RF power charge sessions present to it — exactly the node-side logic a
// mote firmware would run.
type NodeAgent struct {
	// ID is the node's identity on the wire.
	ID int
	// DrainW is the node's steady-state consumption.
	DrainW float64
	// RequestFrac triggers charging requests.
	RequestFrac float64
	// CooldownSimSec suppresses re-requests after a session.
	CooldownSimSec float64
	// Battery is the node's store.
	Battery *energy.Battery
	// Rect is the node's harvesting rectifier.
	Rect wpt.Rectifier
	// TickRealMs and ScaleSimPerReal define the virtual clock: every tick
	// advances TickRealMs·Scale/1000 simulated seconds.
	TickRealMs      int
	ScaleSimPerReal float64
	// VerifyProb is the per-session probability of a precise mid-session
	// harvest check (the countermeasure extension); zero disables.
	VerifyProb float64
	// verifySeq drives the node's deterministic verification draws.
	verifySeq uint64

	mu        sync.Mutex
	simNow    float64
	coolUntil float64
	pending   bool
	dead      bool
}

// Run connects to the sink and operates until the battery dies, the sink
// shuts the run down, or the connection drops. It is blocking; callers run
// it in a goroutine and wait on it.
func (n *NodeAgent) Run(addr string) error {
	raw, err := net.Dial("tcp", addr)
	if err != nil {
		return fmt.Errorf("testbed: node %d dial: %w", n.ID, err)
	}
	conn := NewConn(raw)
	defer func() { _ = conn.Close() }()
	if err := conn.Send(Message{Type: MsgHello, Node: n.ID}); err != nil {
		return err
	}

	// Reader goroutine: charge sessions arrive asynchronously.
	recvErr := make(chan error, 1)
	go func() {
		for {
			m, err := conn.Recv()
			if err != nil {
				recvErr <- err
				return
			}
			switch m.Type {
			case MsgCharge:
				gain := n.applyCharge(m.RFW, m.DurSimSec)
				if n.shouldVerify() && n.Rect.DCOutput(m.RFW) < 1e-3 && m.DurSimSec > 0 {
					// Mid-session precision check: carrier present, no
					// harvest — report the anomaly before the telemetry.
					if err := conn.Send(Message{
						Type: MsgAlarm, Node: n.ID, RFW: m.RFW, SimSec: n.now(),
					}); err != nil {
						recvErr <- err
						return
					}
				}
				if err := conn.Send(Message{
					Type: MsgTelemetry, Node: n.ID, GainJ: gain, SimSec: n.now(),
				}); err != nil {
					recvErr <- err
					return
				}
			case MsgShutdown:
				recvErr <- nil
				return
			default:
				// Nodes ignore traffic not addressed to their role.
			}
		}
	}()

	ticker := time.NewTicker(time.Duration(n.TickRealMs) * time.Millisecond)
	defer ticker.Stop()
	for {
		select {
		case err := <-recvErr:
			if err == nil || errors.Is(err, io.EOF) || errors.Is(err, net.ErrClosed) {
				return nil
			}
			return err
		case <-ticker.C:
			msg, done := n.tick()
			if msg != nil {
				if err := conn.Send(*msg); err != nil {
					return err
				}
			}
			if done {
				// Announced death; linger briefly so in-flight messages
				// flush, then disconnect.
				time.Sleep(time.Duration(n.TickRealMs) * time.Millisecond)
				return nil
			}
		}
	}
}

// tick advances the virtual clock one step and returns a message to emit,
// plus whether the node just died.
func (n *NodeAgent) tick() (*Message, bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.dead {
		return nil, true
	}
	dt := float64(n.TickRealMs) / 1000 * n.ScaleSimPerReal
	n.simNow += dt
	n.Battery.Drain(n.DrainW * dt)
	if n.Battery.Depleted() {
		n.dead = true
		return &Message{Type: MsgDeath, Node: n.ID, SimSec: n.simNow}, true
	}
	threshold := n.RequestFrac * n.Battery.Capacity()
	if !n.pending && n.simNow >= n.coolUntil && n.Battery.Level() <= threshold {
		n.pending = true
		return &Message{
			Type:   MsgRequest,
			Node:   n.ID,
			LevelJ: n.Battery.MeterRead(),
			NeedJ:  n.Battery.Capacity() - n.Battery.MeterRead(),
			SimSec: n.simNow,
		}, false
	}
	return nil, false
}

// applyCharge rectifies the presented RF power over the session duration
// and returns the metered gain. The session also clears the pending flag
// and starts the cooldown — the node believes it has been served.
func (n *NodeAgent) applyCharge(rfW, durSim float64) float64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.dead {
		return 0
	}
	before := n.Battery.MeterRead()
	n.Battery.Charge(n.Rect.DCOutput(rfW) * durSim)
	n.pending = false
	n.coolUntil = n.simNow + n.CooldownSimSec
	return n.Battery.MeterRead() - before
}

// shouldVerify draws the node's deterministic verification decision: a
// SplitMix64 step over (ID, sequence) compared against VerifyProb.
func (n *NodeAgent) shouldVerify() bool {
	if n.VerifyProb <= 0 {
		return false
	}
	n.mu.Lock()
	n.verifySeq++
	x := uint64(n.ID+1)*0x9e3779b97f4a7c15 + n.verifySeq*0xbf58476d1ce4e5b9
	n.mu.Unlock()
	x ^= x >> 30
	x *= 0x94d049bb133111eb
	x ^= x >> 27
	return float64(x>>11)/(1<<53) < n.VerifyProb
}

// now returns the node's virtual clock.
func (n *NodeAgent) now() float64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.simNow
}

// Alive reports whether the node still runs.
func (n *NodeAgent) Alive() bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return !n.dead
}

// Level returns the current true battery level.
func (n *NodeAgent) Level() float64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.Battery.Level()
}
