package experiments

import (
	"bytes"
	"context"
	"errors"
	"runtime"
	"strings"
	"testing"

	"github.com/reprolab/wrsn-csa/internal/obs"
	"github.com/reprolab/wrsn-csa/internal/report"
)

// renderAll captures everything the CLI derives from an Output that must
// be worker-count-invariant: the rendered table, the note order, and the
// CSV series bytes.
func renderAll(t *testing.T, out *Output) (table string, csv []byte) {
	t.Helper()
	var sb strings.Builder
	if err := out.Table.Render(&sb); err != nil {
		t.Fatal(err)
	}
	for _, note := range out.Notes {
		sb.WriteString("note: " + note + "\n")
	}
	var buf bytes.Buffer
	if len(out.Series) > 0 {
		if err := report.WriteCSV(&buf, out.XName, out.Series...); err != nil {
			t.Fatal(err)
		}
	}
	return sb.String(), buf.Bytes()
}

// TestParallelMergeDeterminism is the core contract of the engine
// redesign: for a fixed BaseSeed, tables, notes and CSV series are
// byte-identical at any worker count.
func TestParallelMergeDeterminism(t *testing.T) {
	e, err := ByID("rfig4")
	if err != nil {
		t.Fatal(err)
	}
	run := func(workers int) (string, []byte) {
		cfg := NewConfig(WithQuick(true), WithSeeds(2), WithWorkers(workers))
		out, err := Run(context.Background(), e, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if out.Timing.Workers != workers {
			t.Errorf("Timing.Workers = %d, want %d", out.Timing.Workers, workers)
		}
		if out.Timing.Wall <= 0 {
			t.Error("Timing.Wall not recorded")
		}
		return renderAll(t, out)
	}
	seqTbl, seqCSV := run(1)
	parTbl, parCSV := run(4)
	if seqTbl != parTbl {
		t.Errorf("rendered output differs between workers=1 and workers=4:\n--- workers=1 ---\n%s\n--- workers=4 ---\n%s", seqTbl, parTbl)
	}
	if !bytes.Equal(seqCSV, parCSV) {
		t.Errorf("CSV differs between workers=1 and workers=4:\n--- workers=1 ---\n%s\n--- workers=4 ---\n%s", seqCSV, parCSV)
	}
}

// TestRunCanceled: a pre-canceled context must surface context.Canceled
// from a campaign-heavy experiment instead of running it.
func TestRunCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, id := range []string{"rfig4", "rfig13", "rtab6"} {
		e, err := ByID(id)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := Run(ctx, e, NewConfig(WithQuick(true), WithSeeds(1))); !errors.Is(err, context.Canceled) {
			t.Errorf("%s: err = %v, want context.Canceled", id, err)
		}
	}
}

func TestByIDNormalization(t *testing.T) {
	for _, id := range []string{"rfig4", "RFIG4", " rFig4\t"} {
		e, err := ByID(id)
		if err != nil {
			t.Errorf("ByID(%q): %v", id, err)
			continue
		}
		if e.ID != "rfig4" {
			t.Errorf("ByID(%q).ID = %q", id, e.ID)
		}
	}
}

func TestByIDUnknownSentinel(t *testing.T) {
	_, err := ByID("rfig999")
	if !errors.Is(err, ErrUnknownExperiment) {
		t.Errorf("err = %v, want ErrUnknownExperiment", err)
	}
	if !strings.Contains(err.Error(), "rfig999") {
		t.Errorf("error %q does not name the bad id", err)
	}
}

func TestNewConfigOptions(t *testing.T) {
	cfg := NewConfig(WithQuick(true), WithSeeds(7), WithBaseSeed(99), WithWorkers(3))
	if !cfg.Quick || cfg.Seeds != 7 || cfg.BaseSeed != 99 || cfg.Workers != 3 {
		t.Errorf("NewConfig mis-applied options: %+v", cfg)
	}
	// Config now carries func-typed fields (Dispatch), so compare the
	// zero-ness of the comparable knobs plus the funcs' nil-ness.
	got := NewConfig()
	if got.Quick || got.Seeds != 0 || got.BaseSeed != 0 || got.Workers != 0 ||
		got.Probe != nil || got.JobTimeout != 0 || got.Dispatch != nil {
		t.Errorf("NewConfig() = %+v, want zero Config", got)
	}
}

func TestConfigWorkersDefault(t *testing.T) {
	if got := (Config{}).workers(); got != runtime.GOMAXPROCS(0) {
		t.Errorf("zero-config workers() = %d, want GOMAXPROCS", got)
	}
	if got := (Config{Workers: 2}).workers(); got != 2 {
		t.Errorf("workers() = %d, want 2", got)
	}
}

// TestInProcessRunInstrumentsCharger: an in-process sweep job runs
// through jobspec.RunOn, which instruments the charger, so the sweep's
// probe sees charger telemetry as a wrsn-sim or csa-attack run does.
func TestInProcessRunInstrumentsCharger(t *testing.T) {
	e, err := ByID("rtab6")
	if err != nil {
		t.Fatal(err)
	}
	rec := obs.NewRecorder()
	cfg := NewConfig(WithQuick(true), WithSeeds(1), WithProbe(rec))
	if _, err := Run(context.Background(), e, cfg); err != nil {
		t.Fatal(err)
	}
	var travel float64
	for _, m := range rec.Snapshot().Counters {
		if m.Name == "charger.travel_m" {
			travel = m.Value
		}
	}
	if travel <= 0 {
		t.Errorf("charger.travel_m = %v after an in-process rtab6 run, want > 0", travel)
	}
}
