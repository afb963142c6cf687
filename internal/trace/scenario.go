package trace

import (
	"fmt"
	"math"

	"github.com/reprolab/wrsn-csa/internal/geom"
	"github.com/reprolab/wrsn-csa/internal/rng"
	"github.com/reprolab/wrsn-csa/internal/wrsn"
)

// Scenario bundles everything needed to reproduce one experimental setup:
// a seed, a deployment config, and network parameters. Building the same
// scenario twice yields identical networks.
type Scenario struct {
	// Seed drives all randomness for the scenario.
	Seed uint64
	// Deploy parameterizes node placement.
	Deploy DeployConfig
	// CommRange is the radio range; non-positive gets the wrsn default.
	CommRange float64
	// SinkAtCenter places the sink at the field center (the evaluation
	// default); otherwise Sink is used as given.
	SinkAtCenter bool
	// Sink is the explicit sink location when SinkAtCenter is false.
	Sink geom.Point
	// RequireConnected makes Build retry placement until every node routes
	// to the sink (up to MaxPlacementTries), the standard evaluation
	// assumption.
	RequireConnected bool
	// Policy selects the routing objective; zero gets the wrsn default.
	Policy wrsn.RoutingPolicy
}

// MaxPlacementTries bounds the resampling loop for RequireConnected
// scenarios.
const MaxPlacementTries = 64

// DefaultScenario returns the evaluation baseline: n nodes uniformly
// deployed around a centered sink, fully connected.
func DefaultScenario(seed uint64, n int) Scenario {
	return Scenario{
		Seed:             seed,
		Deploy:           DeployConfig{Pattern: DeployUniform, N: n},
		SinkAtCenter:     true,
		RequireConnected: true,
	}
}

// Build constructs the network for the scenario. It also returns the
// stream used, already advanced past placement, so callers can draw
// further scenario randomness (request jitter, detector noise) that stays
// decoupled from placement.
func (s Scenario) Build() (*wrsn.Network, *rng.Stream, error) {
	root := rng.New(s.Seed)
	place := root.Split("placement")
	rest := root.Split("post-placement")

	tries := 1
	if s.RequireConnected {
		tries = MaxPlacementTries
	}
	var lastErr error
	for attempt := 0; attempt < tries; attempt++ {
		cfg := s.Deploy // copy; applyDefaults mutates
		specs, err := Generate(place, cfg)
		if err != nil {
			return nil, nil, err
		}
		sink := s.Sink
		if s.SinkAtCenter {
			pts := make([]geom.Point, len(specs))
			for i := range specs {
				pts[i] = specs[i].Pos
			}
			sink = geom.BoundingBox(pts).Center()
		}
		nwCfg := wrsn.Config{Sink: sink, CommRange: s.CommRange, Policy: s.Policy}
		if s.RequireConnected {
			// Repair rather than resample: pull each stranded node inside
			// radio range of a connected one. Deterministic under the
			// placement stream and convergent, where whole-field
			// resampling becomes hopeless at large N.
			if err := repairPlacement(place, specs, nwCfg); err != nil {
				return nil, nil, err
			}
		}
		nw, err := wrsn.NewNetwork(specs, nwCfg)
		if err != nil {
			return nil, nil, err
		}
		if !s.RequireConnected || nw.ConnectedCount() == nw.Len() {
			return nw, rest, nil
		}
		lastErr = fmt.Errorf("trace: placement attempt %d left %d/%d nodes disconnected",
			attempt+1, nw.Len()-nw.ConnectedCount(), nw.Len())
	}
	return nil, nil, fmt.Errorf("trace: no connected placement after %d tries: %w", tries, lastErr)
}

// repairPlacement relocates each node that a network built from specs
// under cfg would leave disconnected to a random offset within 80% of
// radio range of a random connected node, mutating specs in place. One
// pass usually suffices; chains of stranded nodes resolve over the
// caller's rebuild because newly reachable anchors join the pool.
func repairPlacement(r *rng.Stream, specs []wrsn.NodeSpec, cfg wrsn.Config) error {
	stranded, err := wrsn.Stranded(specs, cfg)
	if err != nil {
		return err
	}
	var anchors []geom.Point
	for i, st := range stranded {
		if !st {
			anchors = append(anchors, specs[i].Pos)
		}
	}
	if len(anchors) == len(specs) {
		return nil
	}
	if len(anchors) == 0 {
		anchors = []geom.Point{cfg.Sink}
	}
	commRange := cfg.CommRange
	if commRange <= 0 {
		commRange = wrsn.DefaultCommRange
	}
	reach := 0.8 * commRange
	for i, st := range stranded {
		if !st {
			continue
		}
		anchor := anchors[r.Intn(len(anchors))]
		angle := r.Uniform(0, 2*math.Pi)
		dist := r.Uniform(0.3, 1) * reach
		p := geom.Pt(anchor.X+dist*math.Cos(angle), anchor.Y+dist*math.Sin(angle))
		ns, err := specs[i].Normalized()
		if err != nil {
			return err
		}
		ns.Pos = p
		specs[i] = ns
		anchors = append(anchors, p)
	}
	return nil
}
