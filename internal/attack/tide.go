// Package attack implements the paper's contribution: the charging
// spoofing attack (CSA) planner. The planner solves TIDE — charging
// uTility optImization with key noDe timE window constraints:
//
//	Given a mobile charger with an energy budget, a set of key nodes that
//	must each receive a spoofed "charging" visit inside its time window
//	(after it requests charging, before it dies), and a set of ordinary
//	charging requests whose genuine service earns charging utility (the
//	cover that keeps network-side detectors quiet) — find a route and
//	schedule that spoofs every key node in its window while maximizing the
//	cover utility served, within the budget.
//
// TIDE contains the TSP with time windows and the orienteering problem, so
// it is NP-hard; CSA is the paper's approximation algorithm. This package
// also provides the baselines it is evaluated against and an exact solver
// for small instances used to measure the empirical approximation ratio.
package attack

import (
	"errors"
	"fmt"
	"sync"

	"github.com/reprolab/wrsn-csa/internal/geom"
	"github.com/reprolab/wrsn-csa/internal/wrsn"
)

// VisitKind says why the charger stops at a site.
type VisitKind int

// Visit kinds.
const (
	// VisitSpoof is a mandatory key-node spoofing stop.
	VisitSpoof VisitKind = iota + 1
	// VisitCover is an optional genuine charging stop serving an ordinary
	// request.
	VisitCover
)

// String implements fmt.Stringer.
func (k VisitKind) String() string {
	switch k {
	case VisitSpoof:
		return "spoof"
	case VisitCover:
		return "cover"
	default:
		return fmt.Sprintf("visit(%d)", int(k))
	}
}

// Site is one candidate stop in a TIDE instance.
type Site struct {
	// Node identifies the sensor node at the site.
	Node wrsn.NodeID
	// Pos is the docking position for the stop.
	Pos geom.Point
	// Window is the service window: service must start at or after
	// Window.R and finish by Window.D. The charger may arrive early and
	// wait.
	Window Window
	// Dur is the on-site radiating duration in seconds. For spoof stops
	// this matches the length of a genuine recharge so the visit looks
	// normal; for cover stops it is the time to deliver the request.
	Dur float64
	// PowerW is the electrical power drawn while serving this site; zero
	// means the instance-wide RadiateW. Spoof stops draw a small fraction
	// of a genuine session's power (the null is transmitted at reduced
	// gain), which the builder reflects here.
	PowerW float64
	// UtilJ is the charging utility earned by serving the site: the
	// request's energy need for cover stops, 0 for spoof stops (spoofing
	// delivers nothing).
	UtilJ float64
	// Mandatory marks key-node stops that every feasible plan must
	// include.
	Mandatory bool
	// Kind tags the stop.
	Kind VisitKind
}

// Window is a service time window [R, D] in absolute seconds.
type Window struct {
	R, D float64
}

// Contains reports whether a service of length dur starting at t fits.
func (w Window) Contains(t, dur float64) bool {
	return t >= w.R && t+dur <= w.D
}

// Slack returns D − R − dur, the scheduling freedom of a service of length
// dur; negative means the window can never fit it.
func (w Window) Slack(dur float64) float64 { return w.D - w.R - dur }

// Instance is a complete TIDE problem.
type Instance struct {
	// Depot is where (and when) the charger starts.
	Depot geom.Point
	// Start is the plan epoch in absolute seconds.
	Start float64
	// SpeedMps, MoveJPerM, RadiateW mirror the charger's cost model.
	SpeedMps, MoveJPerM, RadiateW float64
	// BudgetJ is the tour energy budget.
	BudgetJ float64
	// Sites lists all candidate stops: spoof targets (mandatory) and cover
	// requests (optional).
	Sites []Site

	// dists is a lazily built flattened (1+len(Sites))² distance matrix;
	// row and column 0 are the depot, row i+1 is site i. Solvers build it
	// once on entry; while nil every distance query falls back to direct
	// computation, so an Instance works unmodified without it. The matrix
	// holds exactly the values Point.Dist would return, so indexed and
	// direct evaluation are bit-identical. distBox is the distPool entry
	// the matrix came in, handed back by ReleaseDistIndex.
	dists   []float64
	dn      int
	distBox *[]float64
}

// distPool recycles distance matrices between instances. A campaign
// plans once and then releases its matrix, so the next plan in the
// process fills the same memory instead of allocating (1+sites)² floats.
var distPool sync.Pool

// EnsureDistIndex precomputes the site-to-site distance matrix used by
// the solvers. Insertion-heavy planning probes the same legs thousands
// of times; the matrix turns each probe's Hypot into an array read.
// Calling it is optional and idempotent; positions never change after
// construction.
func (in *Instance) EnsureDistIndex() {
	n := len(in.Sites) + 1
	if in.dists != nil && in.dn == n {
		return
	}
	box := in.distBox
	if box == nil {
		box, _ = distPool.Get().(*[]float64)
		if box == nil {
			box = new([]float64)
		}
	}
	if cap(*box) < n*n {
		*box = make([]float64, n*n)
	}
	d := (*box)[:n*n]
	for i := 0; i < n; i++ {
		d[i*n+i] = 0
		for j := i + 1; j < n; j++ {
			v := in.pointOf(i - 1).Dist(in.pointOf(j - 1))
			d[i*n+j] = v
			d[j*n+i] = v
		}
	}
	in.dists, in.dn, in.distBox = d, n, box
}

// ReleaseDistIndex drops the distance matrix and hands its memory to the
// next instance that builds one. Distance queries then compute directly,
// with bit-identical results. Only the instance's owner may call it, once
// no solver is running on the instance or on a copy of it.
func (in *Instance) ReleaseDistIndex() {
	if in.distBox == nil {
		return
	}
	distPool.Put(in.distBox)
	in.dists, in.dn, in.distBox = nil, 0, nil
}

// dist returns the distance between endpoints i and j, where -1 denotes
// the depot and 0..len(Sites)-1 a site index.
func (in *Instance) dist(i, j int) float64 {
	if in.dists != nil {
		return in.dists[(i+1)*in.dn+(j+1)]
	}
	return in.pointOf(i).Dist(in.pointOf(j))
}

// pointOf maps a dist endpoint to its position (-1 is the depot).
func (in *Instance) pointOf(i int) geom.Point {
	if i < 0 {
		return in.Depot
	}
	return in.Sites[i].Pos
}

// Validate reports whether the instance is well formed.
func (in *Instance) Validate() error {
	switch {
	case in.SpeedMps <= 0:
		return fmt.Errorf("attack: SpeedMps must be positive, got %v", in.SpeedMps)
	case in.MoveJPerM < 0:
		return fmt.Errorf("attack: MoveJPerM must be non-negative, got %v", in.MoveJPerM)
	case in.RadiateW < 0:
		return fmt.Errorf("attack: RadiateW must be non-negative, got %v", in.RadiateW)
	case in.BudgetJ <= 0:
		return fmt.Errorf("attack: BudgetJ must be positive, got %v", in.BudgetJ)
	}
	for i, s := range in.Sites {
		if s.Dur < 0 {
			return fmt.Errorf("attack: site %d (node %d) has negative duration", i, s.Node)
		}
		if s.Window.D < s.Window.R {
			return fmt.Errorf("attack: site %d (node %d) has inverted window [%v,%v]", i, s.Node, s.Window.R, s.Window.D)
		}
		if s.UtilJ < 0 {
			return fmt.Errorf("attack: site %d (node %d) has negative utility", i, s.Node)
		}
	}
	return nil
}

// Mandatories returns the indices of mandatory sites.
func (in *Instance) Mandatories() []int {
	var out []int
	for i, s := range in.Sites {
		if s.Mandatory {
			out = append(out, i)
		}
	}
	return out
}

// Plan is an ordered route over site indices with its simulated schedule.
type Plan struct {
	// Order lists site indices in visiting order.
	Order []int
	// Schedule holds per-stop timing aligned with Order; filled by
	// Evaluate.
	Schedule []Stop
	// TravelM is the total travel distance in meters.
	TravelM float64
	// EnergyJ is the total energy (locomotion + radiation).
	EnergyJ float64
	// UtilityJ is the total cover utility earned.
	UtilityJ float64
	// SpoofCount is the number of mandatory stops served.
	SpoofCount int
}

// Stop is the realized timing of one visit.
type Stop struct {
	Site    int
	Arrive  float64
	Begin   float64 // max(Arrive, Window.R)
	End     float64 // Begin + Dur
	WaitSec float64
}

// Errors returned by plan evaluation.
var (
	// ErrWindowViolated reports a stop whose service cannot fit its window.
	ErrWindowViolated = errors.New("attack: time window violated")
	// ErrOverBudget reports a plan exceeding the energy budget.
	ErrOverBudget = errors.New("attack: energy budget exceeded")
	// ErrMissingMandatory reports a plan that skips a key-node stop.
	ErrMissingMandatory = errors.New("attack: mandatory site not visited")
	// ErrDuplicateSite reports a site visited twice.
	ErrDuplicateSite = errors.New("attack: site visited twice")
)

// Evaluate simulates the route in ord and returns the realized plan. The
// charger departs the depot at in.Start, travels at SpeedMps, waits when
// early, and must start each service inside its window. Evaluation fails
// on the first window violation, on duplicate visits, or if total energy
// exceeds the budget; checkMandatory additionally requires every mandatory
// site to appear.
func (in *Instance) Evaluate(ord []int, checkMandatory bool) (Plan, error) {
	p := Plan{Order: append([]int(nil), ord...)}
	p.Schedule = make([]Stop, 0, len(ord))
	seen := make([]bool, len(in.Sites))
	prev := -1 // depot
	t := in.Start
	var radiateJ float64
	for _, idx := range ord {
		if idx < 0 || idx >= len(in.Sites) {
			return p, fmt.Errorf("attack: site index %d out of range", idx)
		}
		if seen[idx] {
			return p, fmt.Errorf("%w: site %d", ErrDuplicateSite, idx)
		}
		seen[idx] = true
		s := &in.Sites[idx]
		d := in.dist(prev, idx)
		arrive := t + d/in.SpeedMps
		begin := max(arrive, s.Window.R)
		end := begin + s.Dur
		if end > s.Window.D {
			return p, fmt.Errorf("%w: site %d (node %d) service [%v,%v] outside [%v,%v]",
				ErrWindowViolated, idx, s.Node, begin, end, s.Window.R, s.Window.D)
		}
		p.TravelM += d
		pw := s.PowerW
		if pw == 0 {
			pw = in.RadiateW
		}
		radiateJ += s.Dur * pw
		p.Schedule = append(p.Schedule, Stop{
			Site: idx, Arrive: arrive, Begin: begin, End: end, WaitSec: begin - arrive,
		})
		if s.Mandatory {
			p.SpoofCount++
		} else {
			p.UtilityJ += s.UtilJ
		}
		prev = idx
		t = end
	}
	p.EnergyJ = p.TravelM*in.MoveJPerM + radiateJ
	if p.EnergyJ > in.BudgetJ {
		return p, fmt.Errorf("%w: %.0f J > %.0f J", ErrOverBudget, p.EnergyJ, in.BudgetJ)
	}
	if checkMandatory {
		for _, m := range in.Mandatories() {
			if !seen[m] {
				return p, fmt.Errorf("%w: site %d (node %d)", ErrMissingMandatory, m, in.Sites[m].Node)
			}
		}
	}
	return p, nil
}

// probeEnergy is Evaluate(ord, false) for planning probes that need only
// feasibility and EnergyJ: it builds no Plan and no error, and allocates
// nothing. It follows Evaluate's float sequence step for step, so its
// energy is bit-identical to the Plan's. ord must hold distinct in-range
// site indices; Evaluate is the checked form.
func (in *Instance) probeEnergy(ord []int) (float64, bool) {
	prev := -1 // depot
	t := in.Start
	var travelM, radiateJ float64
	for _, idx := range ord {
		s := &in.Sites[idx]
		d := in.dist(prev, idx)
		arrive := t + d/in.SpeedMps
		begin := max(arrive, s.Window.R)
		end := begin + s.Dur
		if end > s.Window.D {
			return 0, false
		}
		travelM += d
		pw := s.PowerW
		if pw == 0 {
			pw = in.RadiateW
		}
		radiateJ += s.Dur * pw
		prev = idx
		t = end
	}
	energy := travelM*in.MoveJPerM + radiateJ
	if energy > in.BudgetJ {
		return 0, false
	}
	return energy, true
}

// Feasible reports whether the route is valid (windows, budget, and all
// mandatory sites).
func (in *Instance) Feasible(ord []int) bool {
	_, err := in.Evaluate(ord, true)
	return err == nil
}
