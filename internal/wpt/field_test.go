package wpt

import (
	"math"
	"math/cmplx"
	"math/rand"
	"sync"
	"testing"

	"github.com/reprolab/wrsn-csa/internal/geom"
)

// refFieldAt is the field expression written out on its own, kept as the
// equivalence oracle: probes must be bit-identical to it, since the golden
// Outcome digests hash values derived from this sum.
func refFieldAt(a *Array, x geom.Point) complex128 {
	k := 2 * math.Pi / a.Carrier.Wavelength()
	var sum complex128
	for _, e := range a.Emitters {
		if e.Gain == 0 {
			continue
		}
		d := e.Pos.Dist(x)
		if d > a.Model.Range {
			continue
		}
		amp := e.Gain * a.Model.Amplitude(d)
		sum += cmplx.Rect(amp, e.PhaseRad-k*d)
	}
	return sum
}

func refPowerWithJitter(a *Array, x geom.Point, errs []float64) float64 {
	k := 2 * math.Pi / a.Carrier.Wavelength()
	var sum complex128
	for i, e := range a.Emitters {
		if e.Gain == 0 {
			continue
		}
		d := e.Pos.Dist(x)
		if d > a.Model.Range {
			continue
		}
		amp := e.Gain * a.Model.Amplitude(d)
		sum += cmplx.Rect(amp, e.PhaseRad+errs[i]-k*d)
	}
	return real(sum)*real(sum) + imag(sum)*imag(sum)
}

func testArray() *Array {
	a := NewArray(geom.Point{X: 0, Y: 0}, geom.Point{X: 0.5, Y: 0})
	a.Emitters[0].PhaseRad = 0.3
	a.Emitters[1].PhaseRad = -1.1
	a.Emitters[1].Gain = 1.2
	return a
}

func probePoints(n int, rng *rand.Rand) []geom.Point {
	pts := make([]geom.Point, n)
	for i := range pts {
		pts[i] = geom.Point{X: rng.Float64()*12 - 2, Y: rng.Float64()*12 - 2}
	}
	return pts
}

// TestFieldCacheBitIdentical probes many positions repeatedly and
// requires exact (==, not tolerance) agreement with the reference
// expression on every probe.
func TestFieldCacheBitIdentical(t *testing.T) {
	a := testArray()
	rng := rand.New(rand.NewSource(7))
	pts := probePoints(200, rng)
	for round := 0; round < 3; round++ {
		for _, x := range pts {
			got, want := a.FieldAt(x), refFieldAt(a, x)
			if got != want {
				t.Fatalf("round %d: FieldAt(%v) = %v, want %v (bit-identical)", round, x, got, want)
			}
		}
	}
}

// TestFieldCacheInvalidation mutates the array through every mutation
// route and checks probes track the new configuration exactly: a probe
// keeps no state that could go stale.
func TestFieldCacheInvalidation(t *testing.T) {
	a := testArray()
	x := geom.Point{X: 3, Y: 1}
	mutate := []struct {
		name string
		fn   func()
	}{
		{"Translate", func() { a.Translate(geom.Point{X: 0.25, Y: -0.5}) }},
		{"MoveTo", func() { a.MoveTo(geom.Point{X: 2, Y: 2}) }},
		{"SteerFocus", func() {
			if err := SteerFocus(a, x); err != nil {
				t.Fatal(err)
			}
		}},
		{"SteerNull", func() {
			if err := SteerNull(a, x); err != nil {
				t.Fatal(err)
			}
		}},
		{"direct gain write", func() { a.Emitters[0].Gain = 0.7 }},
		{"direct phase write", func() { a.Emitters[1].PhaseRad = 2.2 }},
		{"model change", func() { a.Model.Range = 9 }},
		{"carrier change", func() { a.Carrier.FrequencyHz = 868e6 }},
	}
	for _, m := range mutate {
		// Probe x, mutate, then require the fresh value.
		a.FieldAt(x)
		m.fn()
		if got, want := a.FieldAt(x), refFieldAt(a, x); got != want {
			t.Fatalf("%s: stale field: got %v, want %v", m.name, got, want)
		}
	}
}

// TestFieldCacheCopySafety checks that a by-value copy of an Array (the
// mobile charger's scratch-steering pattern) and the original probe
// independently: steering the copy never changes the original's field.
func TestFieldCacheCopySafety(t *testing.T) {
	a := testArray()
	x := geom.Point{X: 4, Y: 0.5}
	orig := a.FieldAt(x)

	cp := *a
	cp.Emitters = append([]Emitter(nil), a.Emitters...)
	cp.Emitters[0].PhaseRad += 1.5
	if got, want := cp.FieldAt(x), refFieldAt(&cp, x); got != want {
		t.Fatalf("copy served stale value: got %v, want %v", got, want)
	}
	if got := a.FieldAt(x); got != orig {
		t.Fatalf("original poisoned by copy: got %v, want %v", got, orig)
	}
}

// TestConcurrentProbe probes one shared array from several goroutines at
// once: a probe only reads the array, so -race reports nothing and every
// result equals the reference.
func TestConcurrentProbe(t *testing.T) {
	a := testArray()
	pts := probePoints(64, rand.New(rand.NewSource(13)))
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs := []float64{1e-3, -2e-3}
			for _, x := range pts {
				if got, want := a.FieldAt(x), refFieldAt(a, x); got != want {
					t.Errorf("FieldAt(%v) = %v, want %v", x, got, want)
					return
				}
				if got, _ := a.RFPowerAtWithJitter(x, errs); got != refPowerWithJitter(a, x, errs) {
					t.Errorf("RFPowerAtWithJitter(%v) = %v", x, got)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestRFPowerAtAllMatchesScalar checks the batch probe equals per-point
// probes exactly, with and without a reused destination buffer.
func TestRFPowerAtAllMatchesScalar(t *testing.T) {
	a := testArray()
	rng := rand.New(rand.NewSource(11))
	pts := probePoints(64, rng)
	want := make([]float64, len(pts))
	for i, x := range pts {
		want[i] = a.RFPowerAt(x)
	}
	got := a.RFPowerAtAll(nil, pts)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("batch[%d] = %v, want %v", i, got[i], want[i])
		}
	}
	buf := make([]float64, 0, len(pts))
	got2 := a.RFPowerAtAll(buf, pts)
	if &got2[0] != &buf[:1][0] {
		t.Fatal("batch did not reuse the provided buffer")
	}
	for i := range want {
		if got2[i] != want[i] {
			t.Fatalf("buffered batch[%d] = %v, want %v", i, got2[i], want[i])
		}
	}
}

// TestJitterMemoBitIdentical redraws phase errors at a fixed victim (the
// Monte-Carlo loop shape) and at moving points, requiring exact
// agreement with the reference: the jittered sum and FieldAt share one
// expression.
func TestJitterMemoBitIdentical(t *testing.T) {
	a := testArray()
	rng := rand.New(rand.NewSource(3))
	errs := make([]float64, len(a.Emitters))
	victim := geom.Point{X: 2.5, Y: 0.75}
	for i := 0; i < 100; i++ {
		for j := range errs {
			errs[j] = rng.NormFloat64() * 1e-3
		}
		x := victim
		if i%5 == 4 {
			x = geom.Point{X: rng.Float64() * 8, Y: rng.Float64() * 8}
		}
		got, err := a.RFPowerAtWithJitter(x, errs)
		if err != nil {
			t.Fatal(err)
		}
		if want := refPowerWithJitter(a, x, errs); got != want {
			t.Fatalf("draw %d at %v: got %v, want %v", i, x, got, want)
		}
	}
	if _, err := a.RFPowerAtWithJitter(victim, errs[:1]); err == nil {
		t.Fatal("mismatched errs length accepted")
	}
}

// TestProbeAllocFree proves probes of a fixed position set do not
// allocate.
func TestProbeAllocFree(t *testing.T) {
	a := testArray()
	pts := probePoints(16, rand.New(rand.NewSource(5)))
	allocs := testing.AllocsPerRun(1000, func() {
		for _, x := range pts {
			a.RFPowerAt(x)
		}
	})
	if allocs != 0 {
		t.Fatalf("RFPowerAt allocates %v times per sweep, want 0", allocs)
	}
	buf := make([]float64, len(pts))
	allocs = testing.AllocsPerRun(1000, func() {
		buf = a.RFPowerAtAll(buf, pts)
	})
	if allocs != 0 {
		t.Fatalf("RFPowerAtAll allocates %v times per batch, want 0", allocs)
	}
}
