package mc

import (
	"math"
	"testing"

	"github.com/reprolab/wrsn-csa/internal/geom"
)

func TestDefaults(t *testing.T) {
	c := New(geom.Pt(0, 0), Params{})
	p := c.Params()
	def := DefaultParams()
	if p != def {
		t.Errorf("zero params not defaulted: %+v", p)
	}
	if c.Pos() != c.Depot() {
		t.Error("charger not at depot")
	}
	if c.Remaining() != def.BudgetJ {
		t.Errorf("remaining = %v", c.Remaining())
	}
}

func TestTravelAccounting(t *testing.T) {
	c := New(geom.Pt(0, 0), Params{SpeedMps: 10, MoveJPerM: 100, BudgetJ: 1e6})
	dst := geom.Pt(30, 40) // 50 m away
	if tt := c.TravelTime(dst); tt != 5 {
		t.Errorf("travel time = %v, want 5", tt)
	}
	if te := c.TravelEnergy(dst); te != 5000 {
		t.Errorf("travel energy = %v, want 5000", te)
	}
	if err := c.Travel(dst); err != nil {
		t.Fatal(err)
	}
	if c.Pos() != dst {
		t.Errorf("pos = %v", c.Pos())
	}
	if c.Spent() != 5000 {
		t.Errorf("spent = %v", c.Spent())
	}
	// The array chassis follows.
	if cd := c.Array().Centroid().Dist(dst); cd > 1e-9 {
		t.Errorf("array centroid %v m from charger", cd)
	}
}

func TestTravelBudgetEnforced(t *testing.T) {
	c := New(geom.Pt(0, 0), Params{MoveJPerM: 100, BudgetJ: 100})
	before := c.Pos()
	if err := c.Travel(geom.Pt(10, 0)); err == nil {
		t.Error("over-budget travel accepted")
	}
	if c.Pos() != before || c.Spent() != 0 {
		t.Error("failed travel mutated state")
	}
}

func TestSpendEnergy(t *testing.T) {
	c := New(geom.Pt(0, 0), Params{BudgetJ: 100})
	if err := c.SpendEnergy(-1); err == nil {
		t.Error("negative spend accepted")
	}
	if err := c.SpendEnergy(60); err != nil {
		t.Fatal(err)
	}
	if err := c.SpendEnergy(60); err == nil {
		t.Error("over-budget spend accepted")
	}
	if c.Remaining() != 40 {
		t.Errorf("remaining = %v", c.Remaining())
	}
}

func TestSpendRadiation(t *testing.T) {
	c := New(geom.Pt(0, 0), Params{RadiateW: 10, BudgetJ: 100})
	if err := c.SpendRadiation(5); err != nil {
		t.Fatal(err)
	}
	if c.Spent() != 50 {
		t.Errorf("spent = %v", c.Spent())
	}
}

func TestServicePoint(t *testing.T) {
	c := New(geom.Pt(0, 0), Params{ServiceDist: 0.5})
	node := geom.Pt(10, 0)
	dock := c.ServicePoint(node)
	if d := dock.Dist(node); math.Abs(d-0.5) > 1e-9 {
		t.Errorf("dock distance = %v", d)
	}
	// Already docked: stay put.
	if err := c.Travel(dock); err != nil {
		t.Fatal(err)
	}
	if again := c.ServicePoint(node); again != dock {
		t.Errorf("re-dock moved: %v", again)
	}
}

func TestDeliveredPowerPositionIndependent(t *testing.T) {
	c := New(geom.Pt(0, 0), Params{})
	p1, err := c.DeliveredPower(geom.Pt(100, 0))
	if err != nil {
		t.Fatal(err)
	}
	if p1 <= 0 {
		t.Fatalf("delivered power = %v", p1)
	}
	if err := c.Travel(geom.Pt(50, 50)); err != nil {
		t.Fatal(err)
	}
	p2, err := c.DeliveredPower(geom.Pt(-30, 70))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(p1-p2) > 1e-9 {
		t.Errorf("delivered power depends on geometry: %v vs %v", p1, p2)
	}
	// The query must not mutate the array.
	if cd := c.Array().Centroid().Dist(geom.Pt(50, 50)); cd > 1e-9 {
		t.Error("DeliveredPower moved the array")
	}
}

// TestDeliveredPowerAllocFree alternates delivery estimates over a few
// nodes, two probes each: every switch re-steers the memoized scratch
// array and the repeat probe is served from the memo. Neither allocates.
func TestDeliveredPowerAllocFree(t *testing.T) {
	c := New(geom.Pt(0, 0), Params{})
	nodes := []geom.Point{geom.Pt(3, 4), geom.Pt(-7, 1), geom.Pt(12, -5), geom.Pt(0.25, 9)}
	sweep := func() {
		for _, x := range nodes {
			for range 2 {
				if _, err := c.DeliveredPower(x); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	sweep()
	if allocs := testing.AllocsPerRun(200, sweep); allocs != 0 {
		t.Fatalf("DeliveredPower allocates %v times per sweep of %d probes, want 0", allocs, 2*len(nodes))
	}
}

func TestReset(t *testing.T) {
	c := New(geom.Pt(5, 5), Params{BudgetJ: 1000, MoveJPerM: 1})
	if err := c.Travel(geom.Pt(50, 5)); err != nil {
		t.Fatal(err)
	}
	c.Reset()
	if c.Pos() != geom.Pt(5, 5) || c.Spent() != 0 {
		t.Errorf("reset state: pos=%v spent=%v", c.Pos(), c.Spent())
	}
}
