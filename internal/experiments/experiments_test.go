package experiments

import (
	"context"
	"regexp"
	"slices"
	"strings"
	"testing"

	"github.com/reprolab/wrsn-csa/internal/metrics"
)

// quickCfg keeps experiment tests fast: smallest sweeps, one seed.
var quickCfg = Config{Quick: true, Seeds: 1}

func TestRegistry(t *testing.T) {
	all := All()
	if len(all) != 20 {
		t.Fatalf("experiment count = %d, want 20", len(all))
	}
	seen := make(map[string]bool, len(all))
	for _, e := range all {
		if e.ID == "" || e.Title == "" || e.Run == nil {
			t.Errorf("incomplete experiment %+v", e)
		}
		if seen[e.ID] {
			t.Errorf("duplicate id %q", e.ID)
		}
		seen[e.ID] = true
		if _, err := ByID(e.ID); err != nil {
			t.Errorf("ByID(%q): %v", e.ID, err)
		}
	}
	if _, err := ByID("nope"); err == nil {
		t.Error("unknown id accepted")
	}
}

func TestRectifierCurveShape(t *testing.T) {
	out, err := RunRectifierCurve(context.Background(), quickCfg)
	if err != nil {
		t.Fatal(err)
	}
	dc := out.Series[0]
	if dc.Len() == 0 {
		t.Fatal("empty series")
	}
	// Zero below the dead zone, monotone overall.
	sawZero, sawPositive := false, false
	for i := 0; i < dc.Len(); i++ {
		if dc.X[i] <= 1e-4 && dc.Y[i] == 0 {
			sawZero = true
		}
		if dc.Y[i] > 0 {
			sawPositive = true
		}
		if i > 0 && dc.Y[i] < dc.Y[i-1]-1e-12 {
			t.Fatalf("DC curve decreased at %v", dc.X[i])
		}
	}
	if !sawZero || !sawPositive {
		t.Error("curve lacks dead zone or conversion region")
	}
}

func TestSuperpositionShape(t *testing.T) {
	out, err := RunSuperpositionSweep(context.Background(), quickCfg)
	if err != nil {
		t.Fatal(err)
	}
	rf := out.Series[0]
	// Maximum at phase 0, collapse at π.
	var atPi, at0 float64
	for i := 0; i < rf.Len(); i++ {
		if rf.X[i] == 0 {
			at0 = rf.Y[i]
		}
		if rf.X[i] > 3.14 && rf.X[i] < 3.15 {
			atPi = rf.Y[i]
		}
	}
	if at0 <= 0 {
		t.Fatal("no power at phase 0")
	}
	if atPi > at0/1e6 {
		t.Errorf("no collapse at π: %v vs %v", atPi, at0)
	}
}

func TestNullSteeringShape(t *testing.T) {
	out, err := RunNullSteering(context.Background(), quickCfg)
	if err != nil {
		t.Fatal(err)
	}
	// Precision jitter (series index 1 = 1e-3) must succeed everywhere;
	// commodity jitter (last sigma) must fail everywhere.
	var precision, commodity *seriesRef
	for _, s := range out.Series {
		if s.Label == "success_sigma_1e-3" {
			precision = &seriesRef{s.Y}
		}
		if s.Label == "success_sigma_2deg" {
			commodity = &seriesRef{s.Y}
		}
	}
	if precision == nil || commodity == nil {
		t.Fatal("expected success series missing")
	}
	// Close to the charger the jitter leakage dominates the band target
	// and single-draw carrier misses cost a few percent; success must
	// still be high everywhere and very high on average.
	var sum float64
	for _, y := range precision.y {
		sum += y
		if y < 0.7 {
			t.Errorf("precision-jitter success %v < 0.7", y)
		}
	}
	if mean := sum / float64(len(precision.y)); mean < 0.85 {
		t.Errorf("precision-jitter mean success %v < 0.85", mean)
	}
	for _, y := range commodity.y {
		if y != 0 {
			t.Errorf("commodity-jitter success %v, want 0", y)
		}
	}
}

type seriesRef struct{ y []float64 }

func TestExhaustionVsN(t *testing.T) {
	out, err := RunExhaustionVsN(context.Background(), quickCfg)
	if err != nil {
		t.Fatal(err)
	}
	if out.Table.Rows() == 0 || len(out.Series) != 4 {
		t.Fatalf("table rows=%d series=%d", out.Table.Rows(), len(out.Series))
	}
	checkCaughtDayCells(t, out)
	// The CSA series carries the headline: stealthy exhaustion ≥ 0.8.
	for _, s := range out.Series {
		if s.Label != "CSA" {
			continue
		}
		for i := 0; i < s.Len(); i++ {
			if s.Y[i] < 0.8 {
				t.Errorf("CSA stealthy exhaustion %.2f at n=%v", s.Y[i], s.X[i])
			}
		}
	}
}

func TestUtilityVsBudget(t *testing.T) {
	out, err := RunUtilityVsBudget(context.Background(), quickCfg)
	if err != nil {
		t.Fatal(err)
	}
	// Utility must be non-decreasing in budget for CSA, and Direct flat 0.
	for _, s := range out.Series {
		switch s.Label {
		case "CSA":
			for i := 1; i < s.Len(); i++ {
				if s.Y[i] < s.Y[i-1]-1e-9 {
					t.Errorf("CSA utility fell with budget: %v", s.Y)
				}
			}
		case "Direct":
			for _, y := range s.Y {
				if y != 0 {
					t.Errorf("Direct earned utility %v", y)
				}
			}
		}
	}
}

func TestDetectionROC(t *testing.T) {
	out, err := RunDetectionROC(context.Background(), quickCfg)
	if err != nil {
		t.Fatal(err)
	}
	if out.Table.Rows() == 0 {
		t.Fatal("empty ROC table")
	}
	txt := out.Table.String()
	if !strings.Contains(txt, "utility-shortfall") {
		t.Error("detector rows missing")
	}
}

func TestApproxRatio(t *testing.T) {
	out, err := RunApproxRatio(context.Background(), quickCfg)
	if err != nil {
		t.Fatal(err)
	}
	mean := out.Series[0]
	for i := 0; i < mean.Len(); i++ {
		if mean.Y[i] < 0.7 {
			t.Errorf("mean ratio %.3f at %v sites", mean.Y[i], mean.X[i])
		}
	}
}

func TestLifetime(t *testing.T) {
	out, err := RunLifetime(context.Background(), quickCfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Series) != 4 {
		t.Fatalf("series = %d", len(out.Series))
	}
	// Legit connectivity stays flat; attacked connectivity must collapse
	// below it by the horizon.
	legit, att := out.Series[0], out.Series[1]
	last := legit.Len() - 1
	if att.Y[last] >= legit.Y[last] {
		t.Errorf("no connectivity damage: attack %v vs legit %v", att.Y[last], legit.Y[last])
	}
}

func TestRuntime(t *testing.T) {
	out, err := RunRuntime(context.Background(), quickCfg)
	if err != nil {
		t.Fatal(err)
	}
	s := out.Series[0]
	for i := 0; i < s.Len(); i++ {
		if s.Y[i] <= 0 {
			t.Errorf("non-positive runtime at n=%v", s.X[i])
		}
		if s.Y[i] > 5000 {
			t.Errorf("CSA planning took %.0f ms at n=%v", s.Y[i], s.X[i])
		}
	}
}

func TestHeadlineTable(t *testing.T) {
	out, err := RunHeadline(context.Background(), quickCfg)
	if err != nil {
		t.Fatal(err)
	}
	if out.Table.Rows() != 6 {
		t.Fatalf("rows = %d, want 3 deployments × 2 solvers", out.Table.Rows())
	}
}

func TestAblationsTable(t *testing.T) {
	out, err := RunAblations(context.Background(), quickCfg)
	if err != nil {
		t.Fatal(err)
	}
	if out.Table.Rows() != 7 {
		t.Fatalf("rows = %d", out.Table.Rows())
	}
	checkCaughtDayCells(t, out)
}

// checkCaughtDayCells requires "—" in the caught_day_mean cell of every
// row whose runs were never detected, and so never caught. The columns
// are split on runs of two or more spaces.
func checkCaughtDayCells(t *testing.T, out *Output) {
	t.Helper()
	lines := strings.Split(strings.TrimRight(out.Table.String(), "\n"), "\n")
	split := regexp.MustCompile(` {2,}`)
	head := split.Split(strings.TrimSpace(lines[1]), -1)
	det, day := slices.Index(head, "detected_frac"), slices.Index(head, "caught_day_mean")
	if det < 0 || day < 0 {
		t.Fatalf("%s: no detected_frac/caught_day_mean columns in %q", out.ID, head)
	}
	for _, line := range lines[3:] {
		cells := split.Split(strings.TrimSpace(line), -1)
		if cells[det] == "0" && cells[day] != "—" {
			t.Errorf("%s: undetected row prints caught_day_mean %q, want —: %q", out.ID, cells[day], line)
		}
	}
}

// TestMeanCell pins the empty case: a mean over no runs prints "—",
// not the zero an empty Summary reports.
func TestMeanCell(t *testing.T) {
	var s metrics.Summary
	if got := meanCell(&s); got != "—" {
		t.Errorf("empty summary cell = %v, want —", got)
	}
	s.Add(2)
	s.Add(4)
	if got := meanCell(&s); got != 3.0 {
		t.Errorf("cell = %v, want 3", got)
	}
}

func TestTestbedExperiment(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second wall-clock test")
	}
	out, err := RunTestbed(context.Background(), quickCfg)
	if err != nil {
		t.Fatal(err)
	}
	if out.Table.Rows() != 2 {
		t.Fatalf("rows = %d", out.Table.Rows())
	}
}

func TestRandomInstanceValid(t *testing.T) {
	in := RandomInstance(rngFor(1), 10, 2)
	if err := in.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(in.Mandatories()) != 2 {
		t.Errorf("targets = %d", len(in.Mandatories()))
	}
}

func TestCounterWitnessShape(t *testing.T) {
	out, err := RunCounterWitness(context.Background(), quickCfg)
	if err != nil {
		t.Fatal(err)
	}
	// k=2 floods witnesses; k≥3 silences them.
	for _, s := range out.Series {
		switch s.Label {
		case "witness_rf_k2":
			for i := 0; i < s.Len(); i++ {
				if s.Y[i] < 1e-3 {
					t.Errorf("k=2 witness field %v unexpectedly silent", s.Y[i])
				}
			}
		case "witness_rf_k4":
			for i := 0; i < s.Len(); i++ {
				if s.Y[i] >= 1e-3 {
					t.Errorf("k=4 witness field %v above attestation floor", s.Y[i])
				}
			}
		}
	}
}

func TestDefenseVerificationShape(t *testing.T) {
	// One quick seed can legitimately have a single spoof that dodges a
	// 40% check; average over a few seeds for a stable shape.
	out, err := RunDefenseVerification(context.Background(), Config{Quick: true, Seeds: 4})
	if err != nil {
		t.Fatal(err)
	}
	exposed := out.Series[1]
	// No verification → no exposure; heavy verification → usually exposed.
	if exposed.Y[0] != 0 {
		t.Errorf("exposed at q=0: %v", exposed.Y[0])
	}
	last := exposed.Len() - 1
	if exposed.X[last] >= 0.4 && exposed.Y[last] == 0 {
		t.Errorf("never exposed at q=%v", exposed.X[last])
	}
}

func TestFleetShape(t *testing.T) {
	out, err := RunFleet(context.Background(), quickCfg)
	if err != nil {
		t.Fatal(err)
	}
	busy := out.Series[1]
	for i := 1; i < busy.Len(); i++ {
		if busy.Y[i] >= busy.Y[i-1] {
			t.Errorf("busy fraction did not drop with fleet size: %v", busy.Y)
		}
	}
}
