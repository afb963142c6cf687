package energy

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func mustBattery(t *testing.T, capacity, level, quantum float64) *Battery {
	t.Helper()
	b, err := NewBattery(capacity, level, quantum)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestNewBattery(t *testing.T) {
	if _, err := NewBattery(0, 0, 1); err == nil {
		t.Error("zero capacity accepted")
	}
	if _, err := NewBattery(-5, 0, 1); err == nil {
		t.Error("negative capacity accepted")
	}
	b := mustBattery(t, 100, 150, 1)
	if b.Level() != 100 {
		t.Errorf("over-capacity initial level not clamped: %v", b.Level())
	}
	b = mustBattery(t, 100, -5, 1)
	if b.Level() != 0 {
		t.Errorf("negative initial level not clamped: %v", b.Level())
	}
	// Non-positive quantum gets the default.
	b = mustBattery(t, 100, 50, 0)
	if b.Quantum() != 0.5 {
		t.Errorf("default quantum = %v", b.Quantum())
	}
}

func TestChargeDrainConservation(t *testing.T) {
	b := mustBattery(t, 100, 40, 1)
	stored := b.Charge(30)
	if stored != 30 || b.Level() != 70 {
		t.Fatalf("Charge: stored=%v level=%v", stored, b.Level())
	}
	removed := b.Drain(50)
	if removed != 50 || b.Level() != 20 {
		t.Fatalf("Drain: removed=%v level=%v", removed, b.Level())
	}
}

func TestChargeTopsOut(t *testing.T) {
	b := mustBattery(t, 100, 90, 1)
	stored := b.Charge(30)
	if stored != 10 {
		t.Errorf("stored = %v, want 10", stored)
	}
	if b.Level() != 100 {
		t.Errorf("level = %v, want 100", b.Level())
	}
}

func TestDrainBottomsOut(t *testing.T) {
	b := mustBattery(t, 100, 5, 1)
	removed := b.Drain(30)
	if removed != 5 {
		t.Errorf("removed = %v, want 5", removed)
	}
	if !b.Depleted() {
		t.Error("battery should be depleted")
	}
}

func TestNegativeAmountsIgnored(t *testing.T) {
	b := mustBattery(t, 100, 50, 1)
	if b.Charge(-10) != 0 || b.Drain(-10) != 0 || b.Level() != 50 {
		t.Error("negative charge/drain changed state")
	}
}

func TestLevelInvariant(t *testing.T) {
	b := mustBattery(t, 100, 50, 1)
	f := func(ops []float64) bool {
		for _, op := range ops {
			if math.IsNaN(op) || math.IsInf(op, 0) {
				continue
			}
			op = math.Mod(op, 500)
			if op >= 0 {
				b.Charge(op)
			} else {
				b.Drain(-op)
			}
			if b.Level() < 0 || b.Level() > b.Capacity() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestDrainSpanMatchesDrain holds DrainSpan to one Drain per entry, bit
// for bit, over random spans that keep the level above every draw,
// including spans that end as close to empty as the draws allow.
func TestDrainSpanMatchesDrain(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	compared := 0
	for trial := 0; trial < 2000; trial++ {
		capacity := 1 + rng.Float64()*1e4
		w := math.Ldexp(0.5+rng.Float64(), -rng.Intn(40))
		dts := make([]float64, 1+rng.Intn(64))
		var need float64
		for k := range dts {
			dts[k] = math.Ldexp(0.5+rng.Float64(), rng.Intn(24)-8)
			need += w * dts[k]
		}
		level := need * (1 + math.Ldexp(rng.Float64(), -rng.Intn(50)))
		if level > capacity {
			capacity = level
		}
		want := mustBattery(t, capacity, level, 1)
		clamped := false
		for _, dt := range dts {
			if w*dt > want.Level() {
				clamped = true
				break
			}
			want.Drain(w * dt)
		}
		if clamped {
			continue // the span would empty the battery: outside the contract
		}
		got := mustBattery(t, capacity, level, 1)
		got.DrainSpan(w, dts)
		if math.Float64bits(got.Level()) != math.Float64bits(want.Level()) {
			t.Fatalf("trial %d: DrainSpan left %v, Drain per entry %v", trial, got.Level(), want.Level())
		}
		compared++
	}
	if compared < 1500 {
		t.Fatalf("only %d of 2000 spans stayed above every draw", compared)
	}
}

func TestMeterRead(t *testing.T) {
	b := mustBattery(t, 100, 10.7, 0.5)
	if got := b.MeterRead(); got != 10.5 {
		t.Errorf("MeterRead = %v, want 10.5", got)
	}
	// A gain below the quantum can be invisible to the meter.
	before := b.MeterRead()
	b.Charge(0.2)
	if b.MeterRead() != before {
		t.Errorf("sub-quantum charge visible: %v -> %v", before, b.MeterRead())
	}
}

func TestFractionAndSetLevel(t *testing.T) {
	b := mustBattery(t, 200, 50, 1)
	if f := b.Fraction(); f != 0.25 {
		t.Errorf("Fraction = %v", f)
	}
	b.SetLevel(1000)
	if b.Level() != 200 {
		t.Errorf("SetLevel did not clamp: %v", b.Level())
	}
}

func TestDepletedEpsilon(t *testing.T) {
	b := mustBattery(t, 100, 100, 1)
	b.Drain(100 - 1e-9) // leaves a floating-point crumb
	if !b.Depleted() {
		t.Errorf("crumb level %v should count as depleted", b.Level())
	}
}

func TestRadioModel(t *testing.T) {
	m := DefaultRadioModel()
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := (RadioModel{ElecJPerBit: -1}).Validate(); err == nil {
		t.Error("negative constant accepted")
	}
	// TX energy = bits·(elec + amp·d²).
	bits, d := 1000.0, 40.0
	want := bits * (m.ElecJPerBit + m.AmpJPerBitM2*d*d)
	if got := m.TxEnergy(bits, d); math.Abs(got-want) > 1e-15 {
		t.Errorf("TxEnergy = %v, want %v", got, want)
	}
	if got := m.RxEnergy(bits); got != bits*m.ElecJPerBit {
		t.Errorf("RxEnergy = %v", got)
	}
}

func TestDrainWattsComposition(t *testing.T) {
	m := DefaultRadioModel()
	l := Load{GenBps: 2000, RelayBps: 6000, NextHopDist: 30}
	want := m.SenseW + m.IdleW + m.TxEnergy(8000, 30) + m.RxEnergy(6000)
	got := m.DrainWatts(l)
	if math.Abs(got-want) > 1e-15 {
		t.Errorf("DrainWatts = %v, want %v", got, want)
	}
	// Relay load strictly increases drain.
	lighter := m.DrainWatts(Load{GenBps: 2000, RelayBps: 0, NextHopDist: 30})
	if lighter >= got {
		t.Error("relay traffic did not increase drain")
	}
}

func TestTxEnergyGrowsWithDistance(t *testing.T) {
	m := DefaultRadioModel()
	f := func(a, b float64) bool {
		a, b = math.Abs(math.Mod(a, 1000)), math.Abs(math.Mod(b, 1000))
		lo, hi := math.Min(a, b), math.Max(a, b)
		return m.TxEnergy(1000, lo) <= m.TxEnergy(1000, hi)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
