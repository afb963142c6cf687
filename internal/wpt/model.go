// Package wpt models wireless power transfer: the empirical far-field
// charging model used across the WRSN charging literature, coherent
// multi-emitter superposition of the radiated field, and the nonlinear
// RF-to-DC rectifier at the receiving node.
//
// The charging spoofing attack lives at the intersection of two effects this
// package captures:
//
//  1. Superposition is linear in field amplitude but quadratic in power: two
//     coherent carriers arriving in anti-phase with equal amplitude cancel,
//     and the received RF power collapses to (near) zero even though both
//     emitters radiate at full strength.
//  2. Rectification is nonlinear: below a dead-zone input power the diode
//     does not conduct and the harvested DC output is exactly zero, so even
//     an imperfect null (residual RF above zero) harvests nothing.
//
// A charger that nulls its field at a victim node therefore "charges"
// it — carrier present, session active — while delivering no energy.
package wpt

import (
	"fmt"
	"math"
)

// SpeedOfLight is the propagation speed used to convert the carrier
// frequency into a wavelength, in meters per second.
const SpeedOfLight = 299_792_458.0

// ChargeModel is the empirical point-to-point charging model
//
//	P(d) = α / (d + β)²   for d ≤ Range, else 0
//
// with P in watts and d in meters. α captures transmit power and antenna
// gains; β regularizes the near field. These are the constants fitted from
// commodity 915 MHz charger measurements in the WRSN charging literature.
type ChargeModel struct {
	// Alpha is the numerator constant in watts·m².
	Alpha float64
	// Beta is the near-field regularizer in meters.
	Beta float64
	// Range is the effective charging radius in meters; beyond it the
	// received power is treated as zero.
	Range float64
}

// DefaultChargeModel returns the parameterization used throughout the
// reproduction. The β constant is the empirical near-field regularizer
// fitted for commodity chargers; α is scaled to resonant-coupling
// magnitudes (watt-level delivery at sub-meter docking range, a ~20-minute
// full recharge) as assumed across the WRSN mobile-charging literature.
func DefaultChargeModel() ChargeModel {
	return ChargeModel{Alpha: 4.28, Beta: 0.2316, Range: 8}
}

// Validate reports whether the model constants are physically meaningful.
func (m ChargeModel) Validate() error {
	switch {
	case m.Alpha <= 0:
		return fmt.Errorf("wpt: Alpha must be positive, got %v", m.Alpha)
	case m.Beta < 0:
		return fmt.Errorf("wpt: Beta must be non-negative, got %v", m.Beta)
	case m.Range <= 0:
		return fmt.Errorf("wpt: Range must be positive, got %v", m.Range)
	}
	return nil
}

// Power returns the RF power received at distance d from a single emitter,
// in watts. It is zero beyond the model range and for negative d.
func (m ChargeModel) Power(d float64) float64 {
	if d < 0 || d > m.Range {
		return 0
	}
	s := d + m.Beta
	return m.Alpha / (s * s)
}

// Amplitude returns the field amplitude (in √W, so that |amplitude|² is
// power) at distance d, ignoring the range cutoff. Superposition sums
// amplitudes, not powers.
func (m ChargeModel) Amplitude(d float64) float64 {
	return math.Sqrt(m.Alpha) / (d + m.Beta)
}

// Carrier describes the RF carrier shared by all coherent emitters on a
// charger.
type Carrier struct {
	// FrequencyHz is the carrier frequency. Commodity WRSN chargers
	// operate in the 915 MHz ISM band.
	FrequencyHz float64
}

// DefaultCarrier returns the 915 MHz ISM-band carrier.
func DefaultCarrier() Carrier { return Carrier{FrequencyHz: 915e6} }

// Wavelength returns the carrier wavelength in meters.
func (c Carrier) Wavelength() float64 { return SpeedOfLight / c.FrequencyHz }

// Validate reports whether the carrier is physically meaningful.
func (c Carrier) Validate() error {
	if c.FrequencyHz <= 0 {
		return fmt.Errorf("wpt: carrier frequency must be positive, got %v", c.FrequencyHz)
	}
	return nil
}
