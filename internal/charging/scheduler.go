package charging

import (
	"fmt"
	"slices"

	"github.com/reprolab/wrsn-csa/internal/geom"
	"github.com/reprolab/wrsn-csa/internal/wrsn"
)

// Scheduler orders the pending request queue: given the charger's position
// and the current time, it picks the next request to serve. Implementations
// must be deterministic.
type Scheduler interface {
	// Next returns the chosen request and true, or false when the queue is
	// empty or no request is worth serving.
	Next(q *Queue, chargerPos geom.Point, now float64) (Request, bool)
	// Name identifies the policy in reports.
	Name() string
}

// Compile-time interface compliance checks.
var (
	_ Scheduler = (*FCFS)(nil)
	_ Scheduler = (*NJNP)(nil)
	_ Scheduler = (*EDF)(nil)
	_ Scheduler = (*PeriodicTSP)(nil)
)

// FCFS serves requests in issue order — the simplest on-demand policy.
type FCFS struct{}

// Name implements Scheduler.
func (FCFS) Name() string { return "FCFS" }

// Next implements Scheduler.
func (FCFS) Next(q *Queue, _ geom.Point, _ float64) (Request, bool) {
	p := q.Pending()
	if len(p) == 0 {
		return Request{}, false
	}
	return p[0], true
}

// NJNP is Nearest-Job-Next(-with-Preemption): always serve the spatially
// closest pending request. The classic on-demand WRSN policy; this
// implementation is the non-preemptive variant (selection happens between
// sessions, which is when the simulator consults the scheduler).
type NJNP struct{}

// Name implements Scheduler.
func (NJNP) Name() string { return "NJNP" }

// Next implements Scheduler. It scans the queue's storage in place,
// skipping dropped entries, rather than compacting it through Pending
// on every pick; ties still go to the earlier request in queue order.
func (NJNP) Next(q *Queue, chargerPos geom.Point, _ float64) (Request, bool) {
	best, bestD := -1, 0.0
	for i := range q.pending {
		if q.pending[i].NeedJ < 0 {
			continue
		}
		if d := chargerPos.Dist2(q.pending[i].Pos); best < 0 || d < bestD {
			best, bestD = i, d
		}
	}
	if best < 0 {
		return Request{}, false
	}
	return q.pending[best], true
}

// EDF serves the request with the earliest deadline (soonest projected
// death) first, the lifetime-maximizing greedy.
type EDF struct{}

// Name implements Scheduler.
func (EDF) Name() string { return "EDF" }

// Next implements Scheduler.
func (EDF) Next(q *Queue, _ geom.Point, _ float64) (Request, bool) {
	p := q.Pending()
	if len(p) == 0 {
		return Request{}, false
	}
	best := 0
	for i := 1; i < len(p); i++ {
		if p[i].Deadline < p[best].Deadline {
			best = i
		}
	}
	return p[best], true
}

// PeriodicTSP is the tour-based policy of the periodic-charging
// literature: when the queue has accumulated, plan one travel-efficient
// tour over every pending request (nearest-neighbor construction plus
// 2-opt) and serve it in order; re-plan when the tour is exhausted.
// Compared to NJNP it trades response latency for travel energy.
//
// PeriodicTSP is stateful (it remembers its current tour); use one
// instance per charger.
type PeriodicTSP struct {
	// MinBatch defers planning until this many requests are pending (the
	// "periodic" accumulation); non-positive plans immediately.
	MinBatch int

	tour []wrsn.NodeID
}

// Name implements Scheduler.
func (*PeriodicTSP) Name() string { return "PeriodicTSP" }

// Tour returns the rest of the current tour in serve order, nil when it
// is spent: the state a checkpoint captures.
func (p *PeriodicTSP) Tour() []wrsn.NodeID {
	if len(p.tour) == 0 {
		return nil
	}
	return slices.Clone(p.tour)
}

// SetTour puts back a tour captured by Tour, so a resumed run picks as
// the uninterrupted one would.
func (p *PeriodicTSP) SetTour(stops []wrsn.NodeID) { p.tour = slices.Clone(stops) }

// Next implements Scheduler: pop the next tour stop that is still
// pending; plan a fresh tour when the current one is spent.
func (p *PeriodicTSP) Next(q *Queue, chargerPos geom.Point, _ float64) (Request, bool) {
	// Serve the remainder of the current tour first.
	for len(p.tour) > 0 {
		id := p.tour[0]
		p.tour = p.tour[1:]
		if req, ok := q.Get(id); ok {
			return req, true
		}
	}
	pending := q.Pending()
	if len(pending) == 0 {
		return Request{}, false
	}
	if p.MinBatch > 0 && len(pending) < p.MinBatch {
		// Not enough accumulated: serve nothing yet (the caller idles).
		return Request{}, false
	}
	pts := make([]geom.Point, len(pending))
	for i, r := range pending {
		pts[i] = r.Pos
	}
	order := geom.NearestNeighborOrder(chargerPos, pts)
	route := geom.PermuteBy(pts, order)
	geom.TwoOpt(route, 6)
	// Map improved route positions back to requests. Positions are unique
	// per request in practice; duplicates fall back to order-of-pending.
	byPos := make(map[geom.Point][]wrsn.NodeID, len(pending))
	for _, r := range pending {
		byPos[r.Pos] = append(byPos[r.Pos], r.Node)
	}
	p.tour = p.tour[:0]
	for _, pt := range route {
		ids := byPos[pt]
		if len(ids) == 0 {
			continue
		}
		p.tour = append(p.tour, ids[0])
		byPos[pt] = ids[1:]
	}
	if len(p.tour) == 0 {
		return Request{}, false
	}
	id := p.tour[0]
	p.tour = p.tour[1:]
	req, ok := q.Get(id)
	return req, ok
}

// ByName returns the scheduler with the given policy name.
func ByName(name string) (Scheduler, error) {
	switch name {
	case "FCFS", "fcfs":
		return FCFS{}, nil
	case "NJNP", "njnp":
		return NJNP{}, nil
	case "EDF", "edf":
		return EDF{}, nil
	case "PeriodicTSP", "tsp":
		return &PeriodicTSP{}, nil
	default:
		return nil, fmt.Errorf("charging: unknown scheduler %q (want FCFS, NJNP, EDF, or PeriodicTSP)", name)
	}
}
