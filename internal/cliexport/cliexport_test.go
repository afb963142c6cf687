package cliexport

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/reprolab/wrsn-csa/internal/faults"
	"github.com/reprolab/wrsn-csa/internal/obs"
)

type faultsSpec = faults.Spec

func TestTelemetryDisabled(t *testing.T) {
	var tel Telemetry
	fs := flag.NewFlagSet("x", flag.ContinueOnError)
	tel.Register(fs)
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	if p := tel.Probe(); p.Enabled() {
		t.Error("probe enabled with no export paths")
	}
	if tel.Recorder() != nil {
		t.Error("recorder exists with no export paths")
	}
	if err := tel.Export(); err != nil {
		t.Errorf("no-op export failed: %v", err)
	}
}

func TestTelemetryExport(t *testing.T) {
	dir := t.TempDir()
	metrics := filepath.Join(dir, "m.csv")
	events := filepath.Join(dir, "e.json")

	var tel Telemetry
	fs := flag.NewFlagSet("x", flag.ContinueOnError)
	tel.Register(fs)
	if err := fs.Parse([]string{"-metrics", metrics, "-events", events}); err != nil {
		t.Fatal(err)
	}
	probe := tel.Probe()
	if !probe.Enabled() {
		t.Fatal("probe disabled despite export paths")
	}
	if tel.Probe() != probe {
		t.Error("Probe not idempotent: second call returned a different recorder")
	}
	probe.Add("jobs", 3)
	probe.Event(obs.Event{T: 1, Kind: "x", Node: -1})
	if err := tel.Export(); err != nil {
		t.Fatal(err)
	}
	m, err := os.ReadFile(metrics)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(m), "counter,jobs,,3") {
		t.Errorf("metrics CSV missing counter: %s", m)
	}
	e, err := os.ReadFile(events)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(e), `"kind": "x"`) {
		t.Errorf("events JSON missing event: %s", e)
	}
}

func TestFaultLoad(t *testing.T) {
	var fl FaultLoad
	fs := flag.NewFlagSet("x", flag.ContinueOnError)
	fl.Register(fs)
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	if fl.Spec(42, 86400) != nil {
		t.Error("zero load produced a fault spec")
	}
	if err := fs.Parse([]string{"-faults", "2"}); err != nil {
		t.Fatal(err)
	}
	spec := fl.Spec(42, 86400)
	if spec == nil {
		t.Fatal("load 2 produced no spec")
	}
	base := FaultLoad{Load: 1}.mustSpec(t)
	if spec.NodeFailures <= base.NodeFailures {
		t.Errorf("scale 2 node failures %d not above scale 1's %d", spec.NodeFailures, base.NodeFailures)
	}
}

func (f FaultLoad) mustSpec(t *testing.T) *faultsSpec {
	t.Helper()
	s := f.Spec(42, 86400)
	if s == nil {
		t.Fatal("expected a spec")
	}
	return s
}
