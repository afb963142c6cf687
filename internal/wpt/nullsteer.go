package wpt

import (
	"errors"
	"fmt"
	"math"

	"github.com/reprolab/wrsn-csa/internal/geom"
)

// This file implements the phase/gain solvers that turn a coherent array
// into either a legitimate beamforming charger (SteerFocus) or a spoofing
// charger (SteerNull / SteerResidual). Null steering is the attack
// primitive: the array's superposed field is driven to (near) zero at the
// victim's rectenna, so the victim harvests nothing while the charger is
// parked next to it, visibly "charging".

// ErrNeedTwoEmitters is returned when a null is requested from an array
// with fewer than two active elements; a single coherent source cannot
// cancel itself.
var ErrNeedTwoEmitters = errors.New("wpt: null steering requires at least two emitters")

// ErrOutOfRange is returned when the steering target is outside the
// charging range of the emitters involved.
var ErrOutOfRange = errors.New("wpt: steering target out of charging range")

// ErrGainInfeasible is returned when amplitude equalization at the victim
// would require a drive gain outside [0, MaxGain].
var ErrGainInfeasible = errors.New("wpt: amplitude equalization exceeds gain limits")

// SteerFocus configures all emitters for constructive interference at the
// target: each element's electrical phase cancels its propagation phase so
// every contribution arrives in phase. This is legitimate beamforming; with
// k equal-amplitude elements the received RF power is k² times a single
// element's (array gain). All gains are set to 1.
func SteerFocus(a *Array, target geom.Point) error {
	k := 2 * math.Pi / a.Carrier.Wavelength()
	inRange := false
	for i := range a.Emitters {
		d := a.Emitters[i].Pos.Dist(target)
		a.Emitters[i].Gain = 1
		a.Emitters[i].PhaseRad = normPhase(k * d)
		if d <= a.Model.Range {
			inRange = true
		}
	}
	if !inRange {
		return fmt.Errorf("steer focus at %v: %w", target, ErrOutOfRange)
	}
	return nil
}

// SteerNull configures the array for destructive interference at the
// victim: the first two emitters are driven in exact anti-phase with
// amplitudes equalized at the victim, and any further elements are muted.
// After a successful call the noise-free superposed field at the victim is
// exactly zero; hardware phase jitter leaves the small residual predicted
// by ExpectedNullResidual.
func SteerNull(a *Array, victim geom.Point) error {
	return SteerResidual(a, victim, 0)
}

// SteerResidual configures a detuned null that leaves approximately
// targetRF watts of RF power at the victim. The attack uses this to park
// the residual inside the spoofing band: above the node's carrier-presence
// threshold (so the node sees an active charger) yet below the rectifier
// dead zone (so it harvests nothing). targetRF = 0 requests an exact null.
//
// Construction: with amplitudes equalized to A at the victim and a phase
// offset of π+δ between the two elements, the residual power is
// 4A²·sin²(δ/2); solving for δ places the residual. targetRF above 4A²
// (the constructive maximum) is an error.
func SteerResidual(a *Array, victim geom.Point, targetRF float64) error {
	if len(a.Emitters) < 2 {
		return ErrNeedTwoEmitters
	}
	if targetRF < 0 {
		return fmt.Errorf("wpt: negative target residual %v", targetRF)
	}
	e0, e1 := &a.Emitters[0], &a.Emitters[1]
	d0, d1 := e0.Pos.Dist(victim), e1.Pos.Dist(victim)
	if d0 > a.Model.Range || d1 > a.Model.Range {
		return fmt.Errorf("steer null at %v: %w", victim, ErrOutOfRange)
	}
	a0, a1 := a.Model.Amplitude(d0), a.Model.Amplitude(d1)

	// Equalize amplitudes at the victim. Drive the stronger path at gain 1
	// and boost the weaker; if the required boost exceeds MaxGain, instead
	// attenuate the stronger path (always feasible since gains may be < 1).
	g0, g1 := 1.0, 1.0
	switch {
	case a0 > a1:
		if need := a0 / a1; need <= a.MaxGain {
			g1 = need
		} else {
			g0 = a1 / a0
		}
	case a1 > a0:
		if need := a1 / a0; need <= a.MaxGain {
			g0 = need
		} else {
			g1 = a0 / a1
		}
	}
	amp := g0 * a0 // equalized per-element amplitude at the victim
	if amp <= 0 {
		return ErrGainInfeasible
	}

	// Detune angle for the requested residual: targetRF = 4·amp²·sin²(δ/2).
	maxRF := 4 * amp * amp
	if targetRF > maxRF {
		return fmt.Errorf("wpt: target residual %v exceeds achievable %v at victim", targetRF, maxRF)
	}
	delta := 2 * math.Asin(math.Sqrt(targetRF/maxRF))

	k := 2 * math.Pi / a.Carrier.Wavelength()
	e0.Gain, e1.Gain = g0, g1
	// Zero total phase for element 0 at the victim; element 1 arrives at
	// π+δ relative to it.
	e0.PhaseRad = normPhase(k * d0)
	e1.PhaseRad = normPhase(k*d1 + math.Pi + delta)
	for i := 2; i < len(a.Emitters); i++ {
		a.Emitters[i].Gain = 0
	}
	return nil
}

// ExpectedNullResidual returns the expected residual RF power at a nulled
// victim caused by phase jitter: for two equalized elements of amplitude
// amp with independent phase errors of RMS sigma radians, the mean residual
// is 2·amp²·sigma² to second order.
func ExpectedNullResidual(amp, sigma float64) float64 {
	return 2 * amp * amp * sigma * sigma
}

// NullDepthDB returns the achieved null depth in dB: the ratio of the
// constructive-focus RF power at the victim to the actual (residual) RF
// power, 10·log10(P_focus / P_null). Deeper (larger) is better for the
// attacker. Residuals at or below zero report +Inf (a perfect null).
func NullDepthDB(focusPower, nullPower float64) float64 {
	if nullPower <= 0 {
		return math.Inf(1)
	}
	return 10 * math.Log10(focusPower/nullPower)
}

// SpoofBand is the RF power interval at the victim within which the
// charging spoof is invisible to the node: the carrier detector sees an
// active charger while the rectifier harvests nothing.
type SpoofBand struct {
	// CarrierDetectW is the node's carrier-presence detection threshold in
	// watts. Envelope detectors are far more sensitive than harvesting
	// rectifiers; −40 dBm is typical.
	CarrierDetectW float64
	// DeadZoneW mirrors the rectifier dead zone; residual RF strictly
	// below it harvests zero DC.
	DeadZoneW float64
}

// DefaultSpoofBand pairs a −40 dBm carrier detector with the default
// rectifier's −10 dBm dead zone.
func DefaultSpoofBand() SpoofBand {
	return SpoofBand{CarrierDetectW: 1e-7, DeadZoneW: DefaultRectifier().DeadZoneW}
}

// Validate reports whether the band is well formed.
func (b SpoofBand) Validate() error {
	if b.CarrierDetectW <= 0 || b.DeadZoneW <= b.CarrierDetectW {
		return fmt.Errorf("wpt: spoof band requires 0 < CarrierDetectW (%v) < DeadZoneW (%v)", b.CarrierDetectW, b.DeadZoneW)
	}
	return nil
}

// Contains reports whether RF power p sits inside the spoofing band.
func (b SpoofBand) Contains(p float64) bool {
	return p >= b.CarrierDetectW && p < b.DeadZoneW
}

// Target returns the residual power the attacker should steer for: the
// geometric middle of the band, maximizing margin against both edges.
func (b SpoofBand) Target() float64 {
	return math.Sqrt(b.CarrierDetectW * b.DeadZoneW)
}

// SteerSpoof configures the array for a stealthy charging spoof at the
// victim: amplitudes equalized, phases in exact anti-phase, so the only
// residual RF at the victim's rectenna is the phase-jitter leakage — which
// keeps the victim's carrier detector satisfied (an active charger is
// present) while staying under the rectifier dead zone (nothing harvests).
//
// The attacker prefers to drive at full gain: neighbors and spectrum
// monitors can observe emission levels, and a full-power charger is
// indistinguishable from a genuine one. Gains are scaled down only when
// the hardware's jitter would leak past a third of the dead zone — the
// precision of the phase shifters, not transmit power, is what buys
// stealth. The applied gain scale in (0,1] is returned; the session's
// electrical cost is proportional to its square.
func SteerSpoof(a *Array, victim geom.Point, band SpoofBand) (float64, error) {
	if err := band.Validate(); err != nil {
		return 0, err
	}
	if err := SteerNull(a, victim); err != nil {
		return 0, err
	}
	// Per-element amplitude at the victim after equalization (full drive).
	amp := a.Emitters[0].Gain * a.Model.Amplitude(a.Emitters[0].Pos.Dist(victim))
	sigma := a.PhaseJitterRad
	expected := ExpectedNullResidual(amp, sigma)

	// Hardware too coarse: jitter leaks past the safety ceiling under the
	// dead zone, and only a gain reduction saves the spoof (at the price
	// of an observably weak emission).
	ceiling := band.DeadZoneW / 3
	scale := 1.0
	if expected > ceiling {
		scale = math.Sqrt(ceiling / expected)
		expected = ceiling
	}
	// Null too deep: the victim's carrier detector would see nothing and
	// the node would treat the session as failed. Detune the anti-phase
	// deliberately so the deterministic residual tops the expected jitter
	// leakage up to the band's sweet spot.
	if target := band.Target(); expected < target {
		// SteerResidual works at its own (unscaled) equalized amplitude;
		// pre-divide so the residual lands right after scaling.
		if err := SteerResidual(a, victim, (target-expected)/(scale*scale)); err != nil {
			return 0, err
		}
	}
	if scale != 1 {
		a.Emitters[0].Gain *= scale
		a.Emitters[1].Gain *= scale
	}
	return scale, nil
}

// normPhase wraps a phase into (−π, π] for numeric hygiene.
func normPhase(phi float64) float64 {
	phi = math.Mod(phi, 2*math.Pi)
	if phi > math.Pi {
		phi -= 2 * math.Pi
	} else if phi <= -math.Pi {
		phi += 2 * math.Pi
	}
	return phi
}
