package wpt

import "fmt"

// Rectifier models the nonlinear RF-to-DC conversion stage of a sensor
// node's energy harvester. Three regimes matter for the attack:
//
//   - Dead zone: below DeadZoneW of RF input the rectifying diode does not
//     conduct and DC output is exactly zero. Commodity rectennas have dead
//     zones around −10 dBm (0.1 mW).
//   - Conversion region: between DeadZoneW and SaturationW the conversion
//     efficiency rises with input power toward PeakEfficiency.
//   - Saturation: above SaturationW the DC output is clamped at
//     PeakEfficiency × SaturationW (the regulator limits harvest current).
//
// The efficiency curve in the conversion region follows the logistic shape
// fitted to published P1110/P2110 evaluation-board measurements.
type Rectifier struct {
	// DeadZoneW is the RF input power below which the DC output is zero.
	DeadZoneW float64
	// SaturationW is the RF input power above which DC output stops rising.
	SaturationW float64
	// PeakEfficiency is the asymptotic RF→DC conversion efficiency in (0,1].
	PeakEfficiency float64
	// Knee shapes how fast efficiency ramps after the dead zone; larger is
	// steeper. Dimensionless, must be positive.
	Knee float64
}

// DefaultRectifier returns the rectifier parameterization used throughout
// the reproduction: a −10 dBm dead zone, 20 W saturation (resonant-coupling
// harvesting front end, sized so a single mobile charger can sustain the
// largest evaluated networks), and 62% peak conversion efficiency.
func DefaultRectifier() Rectifier {
	return Rectifier{
		DeadZoneW:      1e-4, // −10 dBm
		SaturationW:    20,
		PeakEfficiency: 0.62,
		Knee:           1.8,
	}
}

// Validate reports whether the rectifier constants are meaningful.
func (r Rectifier) Validate() error {
	switch {
	case r.DeadZoneW < 0:
		return fmt.Errorf("wpt: DeadZoneW must be non-negative, got %v", r.DeadZoneW)
	case r.SaturationW <= r.DeadZoneW:
		return fmt.Errorf("wpt: SaturationW (%v) must exceed DeadZoneW (%v)", r.SaturationW, r.DeadZoneW)
	case r.PeakEfficiency <= 0 || r.PeakEfficiency > 1:
		return fmt.Errorf("wpt: PeakEfficiency must be in (0,1], got %v", r.PeakEfficiency)
	case r.Knee <= 0:
		return fmt.Errorf("wpt: Knee must be positive, got %v", r.Knee)
	}
	return nil
}

// Efficiency returns the RF→DC conversion efficiency at RF input power
// rfW. It is exactly zero in the dead zone, rises smoothly, and approaches
// PeakEfficiency near saturation.
func (r Rectifier) Efficiency(rfW float64) float64 {
	if rfW <= r.DeadZoneW {
		return 0
	}
	// Normalized position within the conversion region on a log-ish ramp:
	// u = (rf − dead) / (sat − dead), clamped at 1 past saturation.
	u := (rfW - r.DeadZoneW) / (r.SaturationW - r.DeadZoneW)
	if u > 1 {
		u = 1
	}
	// Saturating rational ramp: rises with slope controlled by Knee,
	// reaching PeakEfficiency × u(1+k)/(u+k)·... Simpler: eta = peak · u(1+k)/(u·k+1)
	// monotone in u, 0 at u=0, peak at u=1.
	eta := r.PeakEfficiency * u * (1 + r.Knee) / (u*r.Knee + 1)
	return eta
}

// DCOutput returns the harvested DC power for RF input power rfW. Output is
// zero in the dead zone and clamps at the saturation output.
func (r Rectifier) DCOutput(rfW float64) float64 {
	if rfW <= r.DeadZoneW {
		return 0
	}
	in := rfW
	if in > r.SaturationW {
		in = r.SaturationW
	}
	return r.Efficiency(in) * in
}
