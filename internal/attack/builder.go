package attack

import (
	"fmt"
	"math"

	"github.com/reprolab/wrsn-csa/internal/mc"
	"github.com/reprolab/wrsn-csa/internal/wrsn"
)

// BuilderConfig parameterizes BuildInstance.
type BuilderConfig struct {
	// Now is the plan epoch in absolute seconds.
	Now float64
	// RequestFrac is the battery fraction that triggers charging requests;
	// out-of-range values get wrsn.DefaultRequestFraction.
	RequestFrac float64
	// CooldownSec is the node-side re-request suppression period after a
	// charging session — the protocol feature the spoof window exploits:
	// spoofing inside the final CooldownSec before a node's death
	// guarantees it never asks again. Non-positive gets DefaultCooldownSec.
	CooldownSec float64
	// HorizonSec bounds the plan: only requests forecast to be issued
	// within [Now, Now+HorizonSec] become sites. Non-positive gets
	// DefaultHorizonSec.
	HorizonSec float64
	// MaxCovers caps the optional-site count (largest-utility-first) to
	// keep planning tractable; non-positive means no cap.
	MaxCovers int
	// MaxTargets caps the mandatory-site count (highest-severance-first);
	// non-positive means all key nodes.
	MaxTargets int
	// BudgetJ overrides the instance energy budget; non-positive uses the
	// charger's remaining budget. Budget-sweep experiments set this.
	BudgetJ float64
}

// Builder defaults.
const (
	DefaultCooldownSec = 4 * 3600.0
	DefaultHorizonSec  = 14 * 24 * 3600.0
)

func (c *BuilderConfig) applyDefaults() {
	if c.RequestFrac <= 0 || c.RequestFrac >= 1 {
		c.RequestFrac = wrsn.DefaultRequestFraction
	}
	if c.CooldownSec <= 0 {
		c.CooldownSec = DefaultCooldownSec
	}
	if c.HorizonSec <= 0 {
		c.HorizonSec = DefaultHorizonSec
	}
}

// BuildInstance derives a TIDE instance from the live network state:
//
//   - Every key node (sink separator) becomes a mandatory spoof site. Its
//     window opens at max(request time, death − cooldown) — the visit must
//     look solicited *and* leave no time for a re-request — and closes at
//     its projected death. Spoof duration equals a genuine recharge so the
//     stop is indistinguishable by length.
//   - Every other node forecast to request charging within the horizon
//     becomes an optional cover site whose utility is the energy it needs.
//
// The instance's cost model mirrors the charger's parameters and remaining
// budget.
func BuildInstance(nw *wrsn.Network, ch *mc.Charger, cfg BuilderConfig) (*Instance, error) {
	cfg.applyDefaults()
	in := &Instance{
		Depot:     ch.Pos(),
		Start:     cfg.Now,
		SpeedMps:  ch.Params().SpeedMps,
		MoveJPerM: ch.Params().MoveJPerM,
		RadiateW:  ch.Params().RadiateW,
		BudgetJ:   ch.Remaining(),
	}
	if cfg.BudgetJ > 0 {
		in.BudgetJ = cfg.BudgetJ
	}
	// Every sink separator is a target. Many will fall to the cascade —
	// an upstream target's death strands them — but they must still be
	// withheld from genuine service, so they stay in the instance; the
	// executor spoofs whichever windows materialize.
	keys := nw.KeyNodes()
	if cfg.MaxTargets > 0 && len(keys) > cfg.MaxTargets {
		keys = keys[:cfg.MaxTargets]
	}
	isKey := make(map[wrsn.NodeID]bool, len(keys))
	for _, k := range keys {
		isKey[k.ID] = true
	}

	for _, k := range keys {
		site, ok, err := buildSite(nw, ch, cfg, k.ID, true)
		if err != nil {
			return nil, err
		}
		if ok {
			in.Sites = append(in.Sites, site)
		}
	}
	covers := make([]Site, 0, nw.Len())
	for _, n := range nw.Nodes() {
		if isKey[n.ID] || !n.Alive() {
			continue
		}
		site, ok, err := buildSite(nw, ch, cfg, n.ID, false)
		if err != nil {
			return nil, err
		}
		if ok {
			covers = append(covers, site)
		}
	}
	if cfg.MaxCovers > 0 && len(covers) > cfg.MaxCovers {
		// Keep the highest-utility covers; insertion sort by descending
		// utility is fine at these sizes and deterministic.
		for i := 1; i < len(covers); i++ {
			for j := i; j > 0 && covers[j].UtilJ > covers[j-1].UtilJ; j-- {
				covers[j], covers[j-1] = covers[j-1], covers[j]
			}
		}
		covers = covers[:cfg.MaxCovers]
	}
	in.Sites = append(in.Sites, covers...)
	if err := in.Validate(); err != nil {
		return nil, fmt.Errorf("attack: built invalid instance: %w", err)
	}
	return in, nil
}

// buildSite constructs one site, reporting ok=false when the node never
// requests within the horizon or its window cannot fit its service.
func buildSite(nw *wrsn.Network, ch *mc.Charger, cfg BuilderConfig, id wrsn.NodeID, key bool) (Site, bool, error) {
	f, err := nw.ForecastAt(id, cfg.Now, cfg.RequestFrac)
	if err != nil {
		return Site{}, false, err
	}
	if math.IsInf(f.RequestAt, 1) || f.RequestAt > cfg.Now+cfg.HorizonSec {
		return Site{}, false, nil
	}
	node, err := nw.Node(id)
	if err != nil {
		return Site{}, false, err
	}
	// Service fills the battery from the request threshold: the energy a
	// genuine session at this node is expected to deliver.
	needJ := node.Capacity() * (1 - cfg.RequestFrac)
	rate, err := chargeRateAt(ch, node)
	if err != nil {
		return Site{}, false, fmt.Errorf("attack: node %d unreachable for charging: %w", id, err)
	}
	dur := needJ / rate

	var w Window
	if key {
		w = Window{R: math.Max(cfg.Now, math.Max(f.RequestAt, f.DeathAt-cfg.CooldownSec)), D: f.DeathAt}
	} else {
		w = Window{R: math.Max(cfg.Now, f.RequestAt), D: f.DeathAt}
	}
	if w.Slack(dur) < 0 {
		// The node dies too fast for a full-length session; shorten the
		// stop to what fits (a partial charge/spoof), never skip silently.
		dur = math.Max(0, w.D-w.R)
		if key {
			// A zero-length spoof is meaningless; drop such targets.
			if dur <= 0 {
				return Site{}, false, nil
			}
		} else if dur <= 0 {
			return Site{}, false, nil
		}
	}
	s := Site{
		Node:      id,
		Pos:       node.Pos,
		Window:    w,
		Dur:       dur,
		Mandatory: key,
	}
	if key {
		// A spoof is transmitted at full drive (see wpt.SteerSpoof), so
		// its electrical cost matches a genuine session's (PowerW zero
		// value means the instance-wide RadiateW).
		s.Kind = VisitSpoof
	} else {
		s.Kind = VisitCover
		s.UtilJ = math.Min(needJ, rate*dur)
	}
	return s, true, nil
}

// chargeRateAt returns the DC power the charger delivers to the node when
// docked and focused.
func chargeRateAt(ch *mc.Charger, node *wrsn.Node) (float64, error) {
	// The delivered rate is position-independent because the docking
	// distance is fixed; DeliveredPower is a pure query.
	p, err := ch.DeliveredPower(node.Pos)
	if err != nil {
		return 0, err
	}
	if p <= 0 {
		return 0, fmt.Errorf("attack: zero deliverable power at node %d", node.ID)
	}
	return p, nil
}
