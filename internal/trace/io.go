package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"os"

	"github.com/reprolab/wrsn-csa/internal/geom"
	"github.com/reprolab/wrsn-csa/internal/wrsn"
)

// Scenario JSON I/O: scenarios are tiny, fully deterministic descriptions
// (a seed plus configuration), so sharing the JSON reproduces the exact
// network anywhere. cmd/wrsn-sim reads and writes these.

// scenarioJSON is the stable wire format; it mirrors Scenario but keeps
// the deployment pattern and routing policy symbolic so files stay
// readable and versionable. The field is its min corner and its size; a
// field at the origin omits the corner.
type scenarioJSON struct {
	Seed             uint64  `json:"seed"`
	Pattern          string  `json:"pattern"`
	N                int     `json:"n"`
	FieldX           float64 `json:"field_x,omitempty"`
	FieldY           float64 `json:"field_y,omitempty"`
	FieldW           float64 `json:"field_w,omitempty"`
	FieldH           float64 `json:"field_h,omitempty"`
	Clusters         int     `json:"clusters,omitempty"`
	GenBpsMin        float64 `json:"gen_bps_min,omitempty"`
	GenBpsMax        float64 `json:"gen_bps_max,omitempty"`
	InitialFracMin   float64 `json:"initial_frac_min,omitempty"`
	InitialFracMax   float64 `json:"initial_frac_max,omitempty"`
	CommRange        float64 `json:"comm_range,omitempty"`
	SinkAtCenter     bool    `json:"sink_at_center"`
	SinkX            float64 `json:"sink_x,omitempty"`
	SinkY            float64 `json:"sink_y,omitempty"`
	RequireConnected bool    `json:"require_connected"`
	Policy           string  `json:"policy,omitempty"`
}

func patternName(d Deployment) string {
	if d == 0 {
		return DeployUniform.String()
	}
	return d.String()
}

// ParseDeployment returns the deployment pattern a name spells (see
// Deployment.String).
func ParseDeployment(name string) (Deployment, error) {
	for _, d := range []Deployment{DeployUniform, DeployClustered, DeployGrid, DeployCorridor} {
		if d.String() == name {
			return d, nil
		}
	}
	return 0, fmt.Errorf("trace: unknown deployment pattern %q", name)
}

// policyName spells a routing policy for the wire; the zero policy (the
// wrsn default) is omitted.
func policyName(p wrsn.RoutingPolicy) string {
	if p == 0 {
		return ""
	}
	return p.String()
}

func policyByName(name string) (wrsn.RoutingPolicy, error) {
	if name == "" {
		return 0, nil
	}
	for _, p := range []wrsn.RoutingPolicy{wrsn.PolicyShortestDistance, wrsn.PolicyHopCount, wrsn.PolicyEnergyAware} {
		if p.String() == name {
			return p, nil
		}
	}
	return 0, fmt.Errorf("trace: unknown routing policy %q", name)
}

// WriteJSON serializes the scenario.
func (s Scenario) WriteJSON(w io.Writer) error {
	j := scenarioJSON{
		Seed:             s.Seed,
		Pattern:          patternName(s.Deploy.Pattern),
		N:                s.Deploy.N,
		FieldX:           s.Deploy.Field.Min.X,
		FieldY:           s.Deploy.Field.Min.Y,
		FieldW:           s.Deploy.Field.Width(),
		FieldH:           s.Deploy.Field.Height(),
		Clusters:         s.Deploy.Clusters,
		GenBpsMin:        s.Deploy.GenBpsMin,
		GenBpsMax:        s.Deploy.GenBpsMax,
		InitialFracMin:   s.Deploy.InitialFracMin,
		InitialFracMax:   s.Deploy.InitialFracMax,
		CommRange:        s.CommRange,
		SinkAtCenter:     s.SinkAtCenter,
		SinkX:            s.Sink.X,
		SinkY:            s.Sink.Y,
		RequireConnected: s.RequireConnected,
		Policy:           policyName(s.Policy),
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(j); err != nil {
		return fmt.Errorf("trace: encode scenario: %w", err)
	}
	return nil
}

// ReadJSON deserializes a scenario.
func ReadJSON(r io.Reader) (Scenario, error) {
	var j scenarioJSON
	if err := json.NewDecoder(r).Decode(&j); err != nil {
		return Scenario{}, fmt.Errorf("trace: decode scenario: %w", err)
	}
	pat, err := ParseDeployment(j.Pattern)
	if err != nil {
		return Scenario{}, err
	}
	policy, err := policyByName(j.Policy)
	if err != nil {
		return Scenario{}, err
	}
	s := Scenario{
		Seed: j.Seed,
		Deploy: DeployConfig{
			Pattern:        pat,
			N:              j.N,
			Clusters:       j.Clusters,
			GenBpsMin:      j.GenBpsMin,
			GenBpsMax:      j.GenBpsMax,
			InitialFracMin: j.InitialFracMin,
			InitialFracMax: j.InitialFracMax,
		},
		CommRange:        j.CommRange,
		SinkAtCenter:     j.SinkAtCenter,
		RequireConnected: j.RequireConnected,
		Policy:           policy,
	}
	if j.FieldW > 0 && j.FieldH > 0 {
		f := geom.Rect{
			Min: geom.Pt(j.FieldX, j.FieldY),
			Max: geom.Pt(j.FieldX+j.FieldW, j.FieldY+j.FieldH),
		}
		// A corner and size whose sum rounds (or overflows) would come
		// back from WriteJSON as a different size; reject it rather than
		// read a field the file does not spell.
		if f.Width() != j.FieldW || f.Height() != j.FieldH {
			return Scenario{}, fmt.Errorf("trace: field %vx%v at (%v, %v) is not exactly representable",
				j.FieldW, j.FieldH, j.FieldX, j.FieldY)
		}
		s.Deploy.Field = f
	}
	s.Sink.X, s.Sink.Y = j.SinkX, j.SinkY
	return s, nil
}

// LoadScenario reads a scenario file.
func LoadScenario(path string) (Scenario, error) {
	f, err := os.Open(path)
	if err != nil {
		return Scenario{}, fmt.Errorf("trace: %w", err)
	}
	defer func() { _ = f.Close() }()
	return ReadJSON(f)
}

// SaveScenario writes a scenario file.
func (s Scenario) SaveScenario(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	defer func() { _ = f.Close() }()
	return s.WriteJSON(f)
}
