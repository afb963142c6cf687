package attack

import (
	"errors"
	"math"
	"testing"

	"github.com/reprolab/wrsn-csa/internal/geom"
)

// simpleInstance builds a hand-checkable instance: depot at origin, sites
// on the x-axis, 1 m/s, 1 J/m, 1 W radiation.
func simpleInstance(sites ...Site) *Instance {
	return &Instance{
		Depot:     geom.Pt(0, 0),
		SpeedMps:  1,
		MoveJPerM: 1,
		RadiateW:  1,
		BudgetJ:   1e9,
		Sites:     sites,
	}
}

func site(x float64, r, d, dur float64) Site {
	return Site{Pos: geom.Pt(x, 0), Window: Window{R: r, D: d}, Dur: dur, Kind: VisitCover, UtilJ: 1}
}

func TestWindowHelpers(t *testing.T) {
	w := Window{R: 10, D: 30}
	if !w.Contains(10, 20) {
		t.Error("exact fit rejected")
	}
	if w.Contains(9.99, 1) {
		t.Error("early start accepted")
	}
	if w.Contains(25, 10) {
		t.Error("late finish accepted")
	}
	if s := w.Slack(5); s != 15 {
		t.Errorf("slack = %v", s)
	}
}

func TestEvaluateTiming(t *testing.T) {
	in := simpleInstance(
		site(10, 0, 100, 5),  // arrive t=10, begin 10, end 15
		site(20, 30, 100, 5), // arrive 25, wait to 30, end 35
	)
	p, err := in.Evaluate([]int{0, 1}, false)
	if err != nil {
		t.Fatal(err)
	}
	s0, s1 := p.Schedule[0], p.Schedule[1]
	if s0.Arrive != 10 || s0.Begin != 10 || s0.End != 15 || s0.WaitSec != 0 {
		t.Errorf("stop 0 = %+v", s0)
	}
	if s1.Arrive != 25 || s1.Begin != 30 || s1.End != 35 || s1.WaitSec != 5 {
		t.Errorf("stop 1 = %+v", s1)
	}
	if p.TravelM != 20 {
		t.Errorf("travel = %v", p.TravelM)
	}
	// Energy = 20 J travel + 10 s × 1 W radiation.
	if p.EnergyJ != 30 {
		t.Errorf("energy = %v", p.EnergyJ)
	}
	if p.UtilityJ != 2 {
		t.Errorf("utility = %v", p.UtilityJ)
	}
}

func TestEvaluateWindowViolation(t *testing.T) {
	in := simpleInstance(site(10, 0, 12, 5)) // arrives at 10, ends 15 > D=12
	_, err := in.Evaluate([]int{0}, false)
	if !errors.Is(err, ErrWindowViolated) {
		t.Errorf("err = %v, want ErrWindowViolated", err)
	}
}

func TestEvaluateBudget(t *testing.T) {
	in := simpleInstance(site(10, 0, 100, 5))
	in.BudgetJ = 14 // needs 10 travel + 5 radiate = 15
	_, err := in.Evaluate([]int{0}, false)
	if !errors.Is(err, ErrOverBudget) {
		t.Errorf("err = %v, want ErrOverBudget", err)
	}
}

func TestEvaluateDuplicates(t *testing.T) {
	in := simpleInstance(site(10, 0, 100, 1))
	_, err := in.Evaluate([]int{0, 0}, false)
	if !errors.Is(err, ErrDuplicateSite) {
		t.Errorf("err = %v, want ErrDuplicateSite", err)
	}
	if _, err := in.Evaluate([]int{5}, false); err == nil {
		t.Error("out-of-range site accepted")
	}
}

func TestEvaluateMandatoryCheck(t *testing.T) {
	s := site(10, 0, 100, 1)
	s.Mandatory = true
	s.Kind = VisitSpoof
	s.UtilJ = 0
	in := simpleInstance(s, site(20, 0, 100, 1))
	_, err := in.Evaluate([]int{1}, true)
	if !errors.Is(err, ErrMissingMandatory) {
		t.Errorf("err = %v, want ErrMissingMandatory", err)
	}
	p, err := in.Evaluate([]int{0, 1}, true)
	if err != nil {
		t.Fatal(err)
	}
	if p.SpoofCount != 1 {
		t.Errorf("spoof count = %d", p.SpoofCount)
	}
}

func TestPerSitePower(t *testing.T) {
	s := site(10, 0, 100, 10)
	s.PowerW = 0.1 // cheap spoof-grade transmission
	in := simpleInstance(s)
	p, err := in.Evaluate([]int{0}, false)
	if err != nil {
		t.Fatal(err)
	}
	// 10 travel + 10 s × 0.1 W.
	if math.Abs(p.EnergyJ-11) > 1e-12 {
		t.Errorf("energy = %v, want 11", p.EnergyJ)
	}
}

func TestValidate(t *testing.T) {
	bad := []*Instance{
		{SpeedMps: 0, BudgetJ: 1},
		{SpeedMps: 1, MoveJPerM: -1, BudgetJ: 1},
		{SpeedMps: 1, BudgetJ: 0},
	}
	for i, in := range bad {
		if err := in.Validate(); err == nil {
			t.Errorf("bad instance %d accepted", i)
		}
	}
	in := simpleInstance(Site{Window: Window{R: 5, D: 1}})
	if err := in.Validate(); err == nil {
		t.Error("inverted window accepted")
	}
	in = simpleInstance(Site{Dur: -1, Window: Window{R: 0, D: 1}})
	if err := in.Validate(); err == nil {
		t.Error("negative duration accepted")
	}
}

func TestMandatories(t *testing.T) {
	a := site(1, 0, 10, 1)
	b := site(2, 0, 10, 1)
	b.Mandatory = true
	in := simpleInstance(a, b)
	m := in.Mandatories()
	if len(m) != 1 || m[0] != 1 {
		t.Errorf("mandatories = %v", m)
	}
}

func TestVisitKindString(t *testing.T) {
	if VisitSpoof.String() != "spoof" || VisitCover.String() != "cover" {
		t.Error("kind strings wrong")
	}
	if VisitKind(42).String() == "" {
		t.Error("unknown kind empty")
	}
}
