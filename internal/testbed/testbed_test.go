package testbed

import (
	"net"
	"sync"
	"testing"
	"time"

	"github.com/reprolab/wrsn-csa/internal/energy"
	"github.com/reprolab/wrsn-csa/internal/wpt"
)

func TestConnRoundTrip(t *testing.T) {
	client, server := net.Pipe()
	c1, c2 := NewConn(client), NewConn(server)
	defer func() { _ = c1.Close() }()
	defer func() { _ = c2.Close() }()

	want := Message{Type: MsgRequest, Node: 3, LevelJ: 12.5, NeedJ: 87.5, SimSec: 42}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if err := c1.Send(want); err != nil {
			t.Error(err)
		}
	}()
	got, err := c2.Recv()
	if err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if got != want {
		t.Errorf("round trip: got %+v want %+v", got, want)
	}
}

func TestConnConcurrentSend(t *testing.T) {
	client, server := net.Pipe()
	c1, c2 := NewConn(client), NewConn(server)
	defer func() { _ = c1.Close() }()
	defer func() { _ = c2.Close() }()
	const n = 50
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			_ = c1.Send(Message{Type: MsgTelemetry, Node: i})
		}()
	}
	// Every message must arrive intact (framing not interleaved).
	for i := 0; i < n; i++ {
		m, err := c2.Recv()
		if err != nil {
			t.Fatal(err)
		}
		if m.Type != MsgTelemetry {
			t.Fatalf("corrupted frame: %+v", m)
		}
	}
	wg.Wait()
}

func TestNodeAgentApplyCharge(t *testing.T) {
	bat, err := energy.NewBattery(360, 100, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	agent := &NodeAgent{
		ID: 1, DrainW: 0.05, RequestFrac: 0.3, CooldownSimSec: 100,
		Battery: bat, Rect: wpt.DefaultRectifier(),
		TickRealMs: 10, ScaleSimPerReal: 1000,
	}
	// A genuine charge (focused RF) lands energy.
	gain := agent.applyCharge(4*wpt.DefaultChargeModel().Power(0.5), 10)
	if gain <= 0 {
		t.Errorf("focused charge gained %v", gain)
	}
	// A spoof (in-band residual) lands exactly nothing.
	spoofGain := agent.applyCharge(wpt.DefaultSpoofBand().Target(), 1000)
	if spoofGain != 0 {
		t.Errorf("spoofed charge gained %v", spoofGain)
	}
	if !agent.Alive() {
		t.Error("agent died during charges")
	}
}

func TestNodeAgentTickRequestsAndDies(t *testing.T) {
	bat, err := energy.NewBattery(360, 360*0.31, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	agent := &NodeAgent{
		ID: 2, DrainW: 1, RequestFrac: 0.3,
		Battery: bat, Rect: wpt.DefaultRectifier(),
		TickRealMs: 10, ScaleSimPerReal: 100, // 1 sim-second per tick
	}
	// Within a few ticks the battery crosses the threshold and a request
	// fires exactly once.
	requests := 0
	var died bool
	for i := 0; i < 400 && !died; i++ {
		msg, done := agent.tick()
		if msg != nil {
			switch msg.Type {
			case MsgRequest:
				requests++
			case MsgDeath:
				died = true
			}
		}
		if done && !died {
			t.Fatal("done without death message")
		}
	}
	if requests != 1 {
		t.Errorf("requests = %d, want exactly 1 (no pending re-request)", requests)
	}
	if !died {
		t.Error("agent never died")
	}
}

func TestSinkAuditAssembly(t *testing.T) {
	sink, err := NewSink()
	if err != nil {
		t.Fatal(err)
	}
	defer sink.Close()

	// A fake node and a fake charger drive the broker directly.
	nodeRaw, err := net.Dial("tcp", sink.Addr())
	if err != nil {
		t.Fatal(err)
	}
	node := NewConn(nodeRaw)
	if err := node.Send(Message{Type: MsgHello, Node: 5}); err != nil {
		t.Fatal(err)
	}
	chargerRaw, err := net.Dial("tcp", sink.Addr())
	if err != nil {
		t.Fatal(err)
	}
	charger := NewConn(chargerRaw)
	if err := charger.Send(Message{Type: MsgHello, Node: ChargerID}); err != nil {
		t.Fatal(err)
	}

	// Node requests; charger polls and gets the assignment.
	if err := node.Send(Message{Type: MsgRequest, Node: 5, NeedJ: 100, SimSec: 10}); err != nil {
		t.Fatal(err)
	}
	var assign Message
	deadline := time.Now().Add(2 * time.Second)
	for {
		if err := charger.Send(Message{Type: MsgNext}); err != nil {
			t.Fatal(err)
		}
		assign, err = charger.Recv()
		if err != nil {
			t.Fatal(err)
		}
		if assign.Type == MsgAssign {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("assignment never arrived")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if assign.Node != 5 || assign.NeedJ != 100 {
		t.Fatalf("assignment = %+v", assign)
	}

	// Charger charges through the sink; node's telemetry closes the loop.
	if err := charger.Send(Message{Type: MsgCharge, Node: 5, RFW: 1, DurSimSec: 60, NeedJ: 100, SimSec: 20}); err != nil {
		t.Fatal(err)
	}
	chargeMsg, err := node.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if chargeMsg.Type != MsgCharge || chargeMsg.RFW != 1 {
		t.Fatalf("relayed charge = %+v", chargeMsg)
	}
	if err := node.Send(Message{Type: MsgTelemetry, Node: 5, GainJ: 37, SimSec: 80}); err != nil {
		t.Fatal(err)
	}
	// Telemetry is recorded asynchronously; poll the audit.
	deadline = time.Now().Add(2 * time.Second)
	for {
		audit := sink.Audit()
		if len(audit.Sessions) == 1 {
			s := audit.Sessions[0]
			if s.Node != 5 || s.RequestedJ != 100 || s.MeterGainJ != 37 || !s.Solicited {
				t.Fatalf("audited session = %+v", s)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("session never audited")
		}
		time.Sleep(5 * time.Millisecond)
	}

	// A death with a queued request lands in Deaths and Unserved.
	if err := node.Send(Message{Type: MsgRequest, Node: 5, NeedJ: 50, SimSec: 90}); err != nil {
		t.Fatal(err)
	}
	if err := node.Send(Message{Type: MsgDeath, Node: 5, SimSec: 95}); err != nil {
		t.Fatal(err)
	}
	deadline = time.Now().Add(2 * time.Second)
	for {
		audit := sink.Audit()
		if len(audit.Deaths) == 1 && len(audit.Unserved) == 1 {
			if !audit.Deaths[0].Reachable {
				t.Error("testbed death not marked reachable")
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("death/unserved never audited: %+v", audit)
		}
		time.Sleep(5 * time.Millisecond)
	}
	_ = node.Close()
	_ = charger.Close()
}

// End-to-end over real TCP: the attack kills the key relays undetected;
// legitimate operation keeps everyone alive.
func TestRunAttackVsLegit(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second wall-clock test")
	}
	attack, err := Run(RunConfig{Nodes: DefaultNodes(), Attack: true, DurationRealMs: 3000})
	if err != nil {
		t.Fatal(err)
	}
	if len(attack.AgentErrs) > 0 {
		t.Fatalf("agent errors: %v", attack.AgentErrs)
	}
	if attack.KeyDead != attack.KeyTotal {
		t.Errorf("attack exhausted %d/%d key relays", attack.KeyDead, attack.KeyTotal)
	}
	if attack.Detected {
		t.Errorf("attack detected: %+v", attack.Verdicts)
	}

	legit, err := Run(RunConfig{Nodes: DefaultNodes(), Attack: false, DurationRealMs: 3000})
	if err != nil {
		t.Fatal(err)
	}
	if len(legit.AgentErrs) > 0 {
		t.Fatalf("agent errors: %v", legit.AgentErrs)
	}
	if legit.NodesDead != 0 {
		t.Errorf("legit run lost %d nodes", legit.NodesDead)
	}
	if legit.Detected {
		t.Error("legit run flagged")
	}
	if legit.Sessions == 0 {
		t.Error("legit run performed no sessions")
	}
}

func TestRunValidation(t *testing.T) {
	if _, err := Run(RunConfig{}); err == nil {
		t.Error("empty node list accepted")
	}
}

// The harvest-verification extension over the wire: with verification on,
// a spoofing charger raises alarms; an honest one does not.
func TestVerificationOverTCP(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second wall-clock test")
	}
	attack, err := Run(RunConfig{
		Nodes: DefaultNodes(), Attack: true, DurationRealMs: 3000, VerifyProb: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if attack.Alarms == 0 {
		t.Error("no alarms despite 100% verification of spoofed sessions")
	}
	if !attack.Detected {
		t.Error("alarmed attack not marked detected")
	}
	legit, err := Run(RunConfig{
		Nodes: DefaultNodes(), Attack: false, DurationRealMs: 3000, VerifyProb: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if legit.Alarms != 0 {
		t.Errorf("honest charger raised %d alarms", legit.Alarms)
	}
}

// A node connection dying mid-run (crash, radio loss) must not wedge the
// sink or the other agents.
func TestSinkSurvivesConnDrop(t *testing.T) {
	sink, err := NewSink()
	if err != nil {
		t.Fatal(err)
	}
	defer sink.Close()

	// One node connects, requests, and abruptly drops.
	raw, err := net.Dial("tcp", sink.Addr())
	if err != nil {
		t.Fatal(err)
	}
	dropper := NewConn(raw)
	if err := dropper.Send(Message{Type: MsgHello, Node: 1}); err != nil {
		t.Fatal(err)
	}
	if err := dropper.Send(Message{Type: MsgRequest, Node: 1, NeedJ: 10, SimSec: 1}); err != nil {
		t.Fatal(err)
	}
	_ = dropper.Close()

	// A second node keeps working through the sink afterwards.
	raw2, err := net.Dial("tcp", sink.Addr())
	if err != nil {
		t.Fatal(err)
	}
	survivor := NewConn(raw2)
	defer func() { _ = survivor.Close() }()
	if err := survivor.Send(Message{Type: MsgHello, Node: 2}); err != nil {
		t.Fatal(err)
	}
	if err := survivor.Send(Message{Type: MsgRequest, Node: 2, NeedJ: 20, SimSec: 2}); err != nil {
		t.Fatal(err)
	}
	chRaw, err := net.Dial("tcp", sink.Addr())
	if err != nil {
		t.Fatal(err)
	}
	charger := NewConn(chRaw)
	defer func() { _ = charger.Close() }()
	if err := charger.Send(Message{Type: MsgHello, Node: ChargerID}); err != nil {
		t.Fatal(err)
	}
	// Both requests must still be assignable (the dropper's request stays
	// queued; charging it will just go nowhere, which is the operator's
	// problem, not a deadlock).
	got := map[int]bool{}
	deadline := time.Now().Add(2 * time.Second)
	for len(got) < 2 && time.Now().Before(deadline) {
		if err := charger.Send(Message{Type: MsgNext}); err != nil {
			t.Fatal(err)
		}
		m, err := charger.Recv()
		if err != nil {
			t.Fatal(err)
		}
		if m.Type == MsgAssign {
			got[m.Node] = true
		} else {
			time.Sleep(5 * time.Millisecond)
		}
	}
	if !got[1] || !got[2] {
		t.Fatalf("assignments after drop: %v", got)
	}
}
