package mc

import (
	"math"
	"strings"
	"testing"

	"github.com/reprolab/wrsn-csa/internal/geom"
)

// TestFromStateValidation: the snapshot codec decodes "NaN" and "+Inf",
// so a submitted state can carry values no charger reaches. FromState
// must refuse each with an error naming the field, and accept the state
// of a charger that has travelled and spent energy.
func TestFromStateValidation(t *testing.T) {
	c := New(geom.Pt(10, 20), DefaultParams())
	if err := c.Travel(geom.Pt(40, 60)); err != nil {
		t.Fatal(err)
	}
	good := c.State()
	if _, err := FromState(good); err != nil {
		t.Fatalf("valid state refused: %v", err)
	}
	nan, inf := math.NaN(), math.Inf(1)
	cases := []struct {
		name, field string
		edit        func(*State)
	}{
		{"NaN speed", "SpeedMps", func(s *State) { s.Params.SpeedMps = nan }},
		{"+Inf speed", "SpeedMps", func(s *State) { s.Params.SpeedMps = inf }},
		{"zero speed", "SpeedMps", func(s *State) { s.Params.SpeedMps = 0 }},
		{"negative speed", "SpeedMps", func(s *State) { s.Params.SpeedMps = -5 }},
		{"NaN move cost", "Params", func(s *State) { s.Params.MoveJPerM = nan }},
		{"+Inf radiate power", "Params", func(s *State) { s.Params.RadiateW = inf }},
		{"-Inf budget", "Params", func(s *State) { s.Params.BudgetJ = -inf }},
		{"NaN service distance", "Params", func(s *State) { s.Params.ServiceDist = nan }},
		{"+Inf element spacing", "Params", func(s *State) { s.Params.ElementSpacing = inf }},
		{"NaN pos x", "Pos", func(s *State) { s.Pos.X = nan }},
		{"+Inf pos y", "Pos", func(s *State) { s.Pos.Y = inf }},
		{"NaN depot y", "Depot", func(s *State) { s.Depot.Y = nan }},
		{"-Inf depot x", "Depot", func(s *State) { s.Depot.X = -inf }},
		{"NaN spent", "SpentJ", func(s *State) { s.SpentJ = nan }},
		{"+Inf spent", "SpentJ", func(s *State) { s.SpentJ = inf }},
		{"negative spent", "SpentJ", func(s *State) { s.SpentJ = -1 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			st := c.State()
			tc.edit(&st)
			ch, err := FromState(st)
			if err == nil {
				t.Fatalf("FromState accepted the state and built %+v", ch.State())
			}
			if !strings.Contains(err.Error(), tc.field) {
				t.Errorf("error %q does not name %s", err, tc.field)
			}
		})
	}
}
