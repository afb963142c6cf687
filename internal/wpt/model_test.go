package wpt

import (
	"math"
	"testing"
	"testing/quick"
)

func TestChargeModelValidate(t *testing.T) {
	if err := DefaultChargeModel().Validate(); err != nil {
		t.Fatalf("default model invalid: %v", err)
	}
	bad := []ChargeModel{
		{Alpha: 0, Beta: 0.2, Range: 5},
		{Alpha: 1, Beta: -1, Range: 5},
		{Alpha: 1, Beta: 0.2, Range: 0},
	}
	for i, m := range bad {
		if err := m.Validate(); err == nil {
			t.Errorf("bad model %d passed validation", i)
		}
	}
}

func TestPowerMonotoneDecreasing(t *testing.T) {
	m := DefaultChargeModel()
	prev := math.Inf(1)
	for d := 0.0; d <= m.Range; d += 0.1 {
		p := m.Power(d)
		if p > prev {
			t.Fatalf("power increased with distance at d=%v", d)
		}
		prev = p
	}
}

func TestPowerRangeCutoff(t *testing.T) {
	m := DefaultChargeModel()
	if p := m.Power(m.Range + 0.01); p != 0 {
		t.Errorf("power beyond range = %v, want 0", p)
	}
	if p := m.Power(-1); p != 0 {
		t.Errorf("power at negative distance = %v, want 0", p)
	}
	if p := m.Power(m.Range); p <= 0 {
		t.Errorf("power at range edge = %v, want > 0", p)
	}
}

func TestAmplitudePowerConsistency(t *testing.T) {
	m := DefaultChargeModel()
	f := func(dRaw float64) bool {
		d := math.Mod(math.Abs(dRaw), m.Range)
		a := m.Amplitude(d)
		return math.Abs(a*a-m.Power(d)) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCarrier(t *testing.T) {
	c := DefaultCarrier()
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	// 915 MHz → ~32.8 cm.
	if wl := c.Wavelength(); wl < 0.32 || wl > 0.34 {
		t.Errorf("wavelength = %v m, want ≈0.328", wl)
	}
	if err := (Carrier{}).Validate(); err == nil {
		t.Error("zero-frequency carrier accepted")
	}
}
