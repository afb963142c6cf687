package wpt

import (
	"math"
	"testing"
	"testing/quick"
)

func TestRectifierValidate(t *testing.T) {
	if err := DefaultRectifier().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Rectifier{
		{DeadZoneW: -1, SaturationW: 1, PeakEfficiency: 0.5, Knee: 1},
		{DeadZoneW: 1, SaturationW: 0.5, PeakEfficiency: 0.5, Knee: 1},
		{DeadZoneW: 0.1, SaturationW: 1, PeakEfficiency: 0, Knee: 1},
		{DeadZoneW: 0.1, SaturationW: 1, PeakEfficiency: 1.5, Knee: 1},
		{DeadZoneW: 0.1, SaturationW: 1, PeakEfficiency: 0.5, Knee: 0},
	}
	for i, r := range bad {
		if err := r.Validate(); err == nil {
			t.Errorf("bad rectifier %d passed validation", i)
		}
	}
}

// The dead zone is the attack's core lever: RF at or below it must
// harvest exactly zero, not merely little.
func TestDeadZoneIsExactlyZero(t *testing.T) {
	r := DefaultRectifier()
	for _, rf := range []float64{0, r.DeadZoneW / 2, r.DeadZoneW} {
		if out := r.DCOutput(rf); out != 0 {
			t.Errorf("DCOutput(%v) = %v, want exactly 0", rf, out)
		}
		if eff := r.Efficiency(rf); eff != 0 {
			t.Errorf("Efficiency(%v) = %v, want exactly 0", rf, eff)
		}
	}
	// Just above the dead zone the output must become positive.
	if out := r.DCOutput(r.DeadZoneW * 1.01); out <= 0 {
		t.Errorf("DCOutput just above dead zone = %v, want > 0", out)
	}
}

func TestDCOutputMonotone(t *testing.T) {
	r := DefaultRectifier()
	prev := -1.0
	for rf := 0.0; rf < 2*r.SaturationW; rf += r.SaturationW / 500 {
		out := r.DCOutput(rf)
		if out < prev-1e-12 {
			t.Fatalf("DC output decreased at rf=%v", rf)
		}
		prev = out
	}
}

func TestDCOutputMonotoneProperty(t *testing.T) {
	r := DefaultRectifier()
	f := func(a, b float64) bool {
		a, b = math.Abs(a), math.Abs(b)
		if math.IsInf(a, 0) || math.IsInf(b, 0) || math.IsNaN(a) || math.IsNaN(b) {
			return true
		}
		lo, hi := math.Min(a, b), math.Max(a, b)
		return r.DCOutput(lo) <= r.DCOutput(hi)+1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSaturationClamp(t *testing.T) {
	r := DefaultRectifier()
	max := r.DCOutput(r.SaturationW)
	for _, rf := range []float64{r.SaturationW, 2 * r.SaturationW, 100 * r.SaturationW} {
		if out := r.DCOutput(rf); math.Abs(out-max) > 1e-12 {
			t.Errorf("DCOutput(%v) = %v, want clamp at %v", rf, out, max)
		}
	}
}

func TestEfficiencyBounded(t *testing.T) {
	r := DefaultRectifier()
	for rf := 0.0; rf < 3*r.SaturationW; rf += r.SaturationW / 100 {
		eff := r.Efficiency(rf)
		if eff < 0 || eff > r.PeakEfficiency+1e-12 {
			t.Fatalf("efficiency %v out of [0, %v] at rf=%v", eff, r.PeakEfficiency, rf)
		}
	}
	// At saturation the efficiency reaches its peak.
	if eff := r.Efficiency(r.SaturationW); math.Abs(eff-r.PeakEfficiency) > 1e-9 {
		t.Errorf("efficiency at saturation = %v, want %v", eff, r.PeakEfficiency)
	}
}

func TestOutputNeverExceedsInput(t *testing.T) {
	r := DefaultRectifier()
	f := func(rfRaw float64) bool {
		rf := math.Abs(rfRaw)
		if math.IsInf(rf, 0) || math.IsNaN(rf) {
			return true
		}
		return r.DCOutput(rf) <= rf
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
