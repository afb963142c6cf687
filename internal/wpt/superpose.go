package wpt

import (
	"fmt"
	"math"
	"math/cmplx"

	"github.com/reprolab/wrsn-csa/internal/geom"
)

// Emitter is one coherent radiating element on a charger. All emitters on a
// charger share the carrier; each has its own position (the elements are
// physically separated on the charger chassis), drive gain, and electrical
// phase offset.
type Emitter struct {
	// Pos is the element position in field coordinates, meters.
	Pos geom.Point
	// Gain scales the element's field amplitude relative to the reference
	// charge model; 1 drives the element at nominal power, 0 mutes it.
	// Gain must be in [0, MaxGain] of the owning array.
	Gain float64
	// PhaseRad is the electrical phase offset applied at the element, in
	// radians.
	PhaseRad float64
}

// Array is a coherent multi-emitter charger front end. A conventional
// charger is an Array with a single element; the spoofing attack requires
// at least two.
type Array struct {
	Model    ChargeModel
	Carrier  Carrier
	Emitters []Emitter
	// MaxGain bounds each element's drive gain; nominal hardware allows a
	// small boost above 1 to equalize amplitudes during null steering.
	MaxGain float64
	// PhaseJitterRad is the RMS phase error of the hardware phase shifters,
	// in radians. It bounds the achievable null depth: a perfect null needs
	// exact anti-phase, and jitter leaves residual field.
	PhaseJitterRad float64
}

// DefaultPhaseJitterRad is the RMS phase error of the attack rig's
// precision phase shifters (1 mrad ≈ 0.06°). Null depth degrades as the
// square of this jitter; commodity shifters (~2°) leave residuals above
// the rectifier dead zone and make the spoof infeasible — the evaluation
// sweeps this to map the feasibility boundary.
const DefaultPhaseJitterRad = 1e-3

// NewArray builds an array with the given element positions, nominal gain 1
// and zero phase on every element, default charge model and carrier, a 25%
// gain headroom, and precision-grade phase jitter (DefaultPhaseJitterRad).
func NewArray(positions ...geom.Point) *Array {
	ems := make([]Emitter, len(positions))
	for i, p := range positions {
		ems[i] = Emitter{Pos: p, Gain: 1}
	}
	return &Array{
		Model:          DefaultChargeModel(),
		Carrier:        DefaultCarrier(),
		Emitters:       ems,
		MaxGain:        1.25,
		PhaseJitterRad: DefaultPhaseJitterRad,
	}
}

// Clone returns an independent deep copy of the array: the emitter slice
// is copied so steering or moving the clone never disturbs the original.
// Clone reads the source without mutating it, so a shared template array
// may be cloned concurrently.
func (a *Array) Clone() *Array {
	b := *a
	b.Emitters = append([]Emitter(nil), a.Emitters...)
	return &b
}

// Validate reports whether the array configuration is usable.
func (a *Array) Validate() error {
	if err := a.Model.Validate(); err != nil {
		return err
	}
	if err := a.Carrier.Validate(); err != nil {
		return err
	}
	if len(a.Emitters) == 0 {
		return fmt.Errorf("wpt: array has no emitters")
	}
	if a.MaxGain <= 0 {
		return fmt.Errorf("wpt: MaxGain must be positive, got %v", a.MaxGain)
	}
	for i, e := range a.Emitters {
		if e.Gain < 0 || e.Gain > a.MaxGain {
			return fmt.Errorf("wpt: emitter %d gain %v outside [0, %v]", i, e.Gain, a.MaxGain)
		}
		if math.IsNaN(e.PhaseRad) || math.IsInf(e.PhaseRad, 0) {
			return fmt.Errorf("wpt: emitter %d phase is not finite", i)
		}
	}
	return nil
}

// Translate moves every emitter by the same offset, repositioning the
// charger chassis without altering element geometry.
func (a *Array) Translate(offset geom.Point) {
	for i := range a.Emitters {
		a.Emitters[i].Pos = a.Emitters[i].Pos.Add(offset)
	}
}

// MoveTo repositions the array so its centroid sits at dst, preserving the
// relative element layout.
func (a *Array) MoveTo(dst geom.Point) {
	a.Translate(dst.Sub(a.Centroid()))
}

// Centroid returns the array's chassis position (emitter centroid), the
// sum and division of geom.Centroid over the emitter positions.
func (a *Array) Centroid() geom.Point {
	if len(a.Emitters) == 0 {
		return geom.Point{}
	}
	var c geom.Point
	for _, e := range a.Emitters {
		c.X += e.Pos.X
		c.Y += e.Pos.Y
	}
	n := float64(len(a.Emitters))
	return geom.Point{X: c.X / n, Y: c.Y / n}
}

// FieldAt returns the complex superposed field amplitude at point x, in √W.
// Each element contributes gain·A(dᵢ)·exp(j(φᵢ − k·dᵢ)) where A is the
// single-emitter amplitude from the charge model, k = 2π/λ the wavenumber,
// and dᵢ the element-to-point distance. Elements beyond the charging range
// contribute nothing. A probe only reads the array, so a shared array may
// be probed concurrently.
func (a *Array) FieldAt(x geom.Point) complex128 { return a.field(x, nil) }

// field is the one superposition sum behind FieldAt and
// RFPowerAtWithJitter. errs, when non-nil, adds a phase error to each
// element: φᵢ becomes φᵢ + errs[i].
func (a *Array) field(x geom.Point, errs []float64) complex128 {
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
		phase := e.PhaseRad
		if errs != nil {
			phase += errs[i]
		}
		sum += cmplx.Rect(amp, phase-k*d)
	}
	return sum
}

// RFPowerAt returns the superposed RF power at point x in watts: the squared
// magnitude of the coherent field sum.
func (a *Array) RFPowerAt(x geom.Point) float64 {
	return power(a.FieldAt(x))
}

// power is the squared magnitude |f|².
func power(f complex128) float64 { return real(f)*real(f) + imag(f)*imag(f) }

// RFPowerAtAll returns the superposed RF power at every point, in watts:
// the batch form of RFPowerAt. When dst has sufficient capacity the result
// reuses it; otherwise a new slice is allocated.
func (a *Array) RFPowerAtAll(dst []float64, points []geom.Point) []float64 {
	if cap(dst) < len(points) {
		dst = make([]float64, len(points))
	}
	dst = dst[:len(points)]
	for i, x := range points {
		dst[i] = a.RFPowerAt(x)
	}
	return dst
}

// RFPowerAtWithJitter returns the RF power at x when each element's phase is
// perturbed by the given per-element phase errors (radians). Callers sample
// the errors from N(0, PhaseJitterRad²) to evaluate realistic null depth.
// len(errs) must equal the emitter count.
func (a *Array) RFPowerAtWithJitter(x geom.Point, errs []float64) (float64, error) {
	if len(errs) != len(a.Emitters) {
		return 0, fmt.Errorf("wpt: got %d phase errors for %d emitters", len(errs), len(a.Emitters))
	}
	return power(a.field(x, errs)), nil
}

// IncoherentPowerAt returns the power sum Σ|Aᵢ|² at x, the value a naive
// (linear, incoherent) superposition model predicts. The gap between this
// and RFPowerAt is the nonlinear superposition effect the paper exploits.
func (a *Array) IncoherentPowerAt(x geom.Point) float64 {
	var sum float64
	for _, e := range a.Emitters {
		if e.Gain == 0 {
			continue
		}
		d := e.Pos.Dist(x)
		if d > a.Model.Range {
			continue
		}
		amp := e.Gain * a.Model.Amplitude(d)
		sum += amp * amp
	}
	return sum
}
