package testbed

import (
	"fmt"
	"sync"
	"time"

	"github.com/reprolab/wrsn-csa/internal/detect"
	"github.com/reprolab/wrsn-csa/internal/energy"
	"github.com/reprolab/wrsn-csa/internal/wpt"
	"github.com/reprolab/wrsn-csa/internal/wrsn"
)

// NodeSetup describes one test-bed node.
type NodeSetup struct {
	// DrainW is the node's consumption; heavier drains emulate relay
	// duties.
	DrainW float64
	// InitialFrac is the starting battery fraction.
	InitialFrac float64
	// CapacityJ is the battery size; non-positive gets a small test-bed
	// battery (360 J) so dynamics complete within the accelerated run.
	CapacityJ float64
	// Key marks the node as a spoofing target in attack runs.
	Key bool
}

// RunConfig parameterizes a test-bed run.
type RunConfig struct {
	Nodes []NodeSetup
	// Attack enables spoofing of the key nodes; otherwise the charger is
	// legitimate everywhere.
	Attack bool
	// DurationRealMs is the wall-clock run length; non-positive gets 3000.
	DurationRealMs int
	// ScaleSimPerReal is virtual seconds per real second; non-positive
	// gets 2000 (a 3 s run covers ~100 virtual minutes).
	ScaleSimPerReal float64
	// RequestFrac triggers node requests; out-of-range gets the default.
	RequestFrac float64
	// VerifyProb enables the harvest-verification countermeasure on every
	// node (extension); zero disables.
	VerifyProb float64
}

// Report is the outcome of a test-bed run.
type Report struct {
	// Audit is what the sink observed over TCP.
	Audit detect.Audit
	// Verdicts and Detected summarize the detector suite.
	Verdicts []detect.Verdict
	Detected bool
	// KeyTotal/KeyDead count the spoof-target set and its casualties.
	KeyTotal, KeyDead int
	// NodesDead counts all deaths.
	NodesDead int
	// Sessions counts audited charging sessions.
	Sessions int
	// Alarms counts harvest-verification alarms the sink received; any
	// alarm exposes the charger.
	Alarms int
	// AgentErrs carries any agent failures (nil on a clean run).
	AgentErrs []error
}

// Run executes a complete software-in-the-loop test-bed experiment:
// starts the sink, the node agents, and the charger agent; lets them
// interact over TCP for the configured duration; then tears everything
// down and judges the audit.
func Run(cfg RunConfig) (*Report, error) {
	if len(cfg.Nodes) == 0 {
		return nil, fmt.Errorf("testbed: no nodes configured")
	}
	if cfg.DurationRealMs <= 0 {
		cfg.DurationRealMs = 3000
	}
	if cfg.ScaleSimPerReal <= 0 {
		cfg.ScaleSimPerReal = 2000
	}
	if cfg.RequestFrac <= 0 || cfg.RequestFrac >= 1 {
		cfg.RequestFrac = wrsn.DefaultRequestFraction
	}

	sink, err := NewSink()
	if err != nil {
		return nil, err
	}
	defer sink.Close()

	model := wpt.DefaultChargeModel()
	rect := wpt.DefaultRectifier()
	band := wpt.DefaultSpoofBand()

	agents := make([]*NodeAgent, len(cfg.Nodes))
	targets := make(map[int]bool)
	var (
		wg     sync.WaitGroup
		errMu  sync.Mutex
		agErrs []error
	)
	recordErr := func(err error) {
		if err == nil {
			return
		}
		errMu.Lock()
		agErrs = append(agErrs, err)
		errMu.Unlock()
	}
	for i, spec := range cfg.Nodes {
		capJ := spec.CapacityJ
		if capJ <= 0 {
			capJ = 360
		}
		frac := spec.InitialFrac
		if frac <= 0 || frac > 1 {
			frac = 0.6
		}
		bat, err := energy.NewBattery(capJ, capJ*frac, 0.5)
		if err != nil {
			return nil, err
		}
		// Cooldown outlasting the post-request residual life (RequestFrac
		// of a full lifetime) is what CSA's window placement guarantees in
		// the full campaign: a spoofed node never re-requests before it
		// dies. The test bed bakes the same relation into the protocol
		// constant instead of re-planning windows.
		cooldown := (cfg.RequestFrac + 0.05) * capJ / spec.DrainW
		agents[i] = &NodeAgent{
			ID:              i,
			DrainW:          spec.DrainW,
			RequestFrac:     cfg.RequestFrac,
			CooldownSimSec:  cooldown,
			Battery:         bat,
			Rect:            rect,
			TickRealMs:      20,
			ScaleSimPerReal: cfg.ScaleSimPerReal,
			VerifyProb:      cfg.VerifyProb,
		}
		if spec.Key && cfg.Attack {
			targets[i] = true
		}
	}
	for _, ag := range agents {
		ag := ag
		wg.Add(1)
		go func() {
			defer wg.Done()
			recordErr(ag.Run(sink.Addr()))
		}()
	}

	charger := &ChargerAgent{
		Targets:         targets,
		Model:           model,
		Rect:            rect,
		Band:            band,
		ServiceDist:     0.5,
		TravelRealMs:    30,
		ScaleSimPerReal: cfg.ScaleSimPerReal,
		PollRealMs:      20,
	}
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		recordErr(charger.Run(sink.Addr(), stop))
	}()

	time.Sleep(time.Duration(cfg.DurationRealMs) * time.Millisecond)
	close(stop)
	sink.Close()
	wg.Wait()

	audit := sink.Audit()
	rep := &Report{
		Audit:     audit,
		Verdicts:  detect.Judge(audit, detect.Suite()),
		Sessions:  len(audit.Sessions),
		NodesDead: len(audit.Deaths),
		Alarms:    len(sink.Alarms()),
		AgentErrs: agErrs,
	}
	rep.Detected = detect.AnyFlagged(rep.Verdicts) || rep.Alarms > 0
	deadSet := make(map[wrsn.NodeID]bool, len(audit.Deaths))
	for _, d := range audit.Deaths {
		deadSet[d.Node] = true
	}
	for i, spec := range cfg.Nodes {
		if !spec.Key {
			continue
		}
		rep.KeyTotal++
		if deadSet[wrsn.NodeID(i)] {
			rep.KeyDead++
		}
	}
	return rep, nil
}

// DefaultNodes returns the canonical 12-node corridor test bed: two heavy
// relays (the key nodes) and ten ordinary nodes whose genuine sessions
// supply the cover traffic that keeps the failure-ratio detectors quiet.
func DefaultNodes() []NodeSetup {
	nodes := make([]NodeSetup, 0, 12)
	for i := 0; i < 12; i++ {
		s := NodeSetup{DrainW: 0.05, InitialFrac: 0.55}
		if i == 3 || i == 8 {
			s.DrainW = 0.12
			s.Key = true
		}
		nodes = append(nodes, s)
	}
	return nodes
}
