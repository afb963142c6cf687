// Package cliexport is the glue the commands share: the telemetry-export
// and fault-load flags (register them on a FlagSet, get a probe for the
// run, export the recording at the end), the fault-summary line, and
// the submit-and-wait path to a wrsncsad daemon.
package cliexport

import (
	"context"
	"flag"
	"fmt"
	"time"

	"github.com/reprolab/wrsn-csa/client"
	"github.com/reprolab/wrsn-csa/internal/faults"
	"github.com/reprolab/wrsn-csa/internal/jobspec"
	"github.com/reprolab/wrsn-csa/internal/obs"
)

// Telemetry owns the -metrics/-events export flags and the recorder
// behind them. The zero value is ready to Register.
type Telemetry struct {
	// MetricsPath and EventsPath are the flag values (.json for JSON,
	// CSV otherwise; empty disables that export).
	MetricsPath string
	EventsPath  string

	rec *obs.Recorder
}

// Register installs the -metrics and -events flags on fs.
func (t *Telemetry) Register(fs *flag.FlagSet) {
	fs.StringVar(&t.MetricsPath, "metrics", "", "export run telemetry metrics to this file (.json for JSON, CSV otherwise)")
	fs.StringVar(&t.EventsPath, "events", "", "export the telemetry event stream to this file (.json for JSON, CSV otherwise)")
}

// Probe returns the probe for the run: a recorder when any export path
// is set (created once; later calls return the same recorder), the
// no-op probe otherwise. Call it after flag parsing.
func (t *Telemetry) Probe() obs.Probe {
	if t.MetricsPath == "" && t.EventsPath == "" {
		return obs.Nop()
	}
	if t.rec == nil {
		t.rec = obs.NewRecorder()
	}
	return t.rec
}

// Recorder returns the recorder behind Probe, or nil when no export path
// was requested.
func (t *Telemetry) Recorder() *obs.Recorder {
	t.Probe()
	if t.MetricsPath == "" && t.EventsPath == "" {
		return nil
	}
	return t.rec
}

// Export snapshots the recorder and writes the requested files. With no
// export paths (or before Probe) it is a no-op, so commands call it
// unconditionally on every exit path.
func (t *Telemetry) Export() error {
	if t.rec == nil {
		return nil
	}
	snap := t.rec.Snapshot()
	if t.MetricsPath != "" {
		if err := snap.ExportMetrics(t.MetricsPath); err != nil {
			return fmt.Errorf("export metrics: %w", err)
		}
	}
	if t.EventsPath != "" {
		if err := snap.ExportEvents(t.EventsPath); err != nil {
			return fmt.Errorf("export events: %w", err)
		}
	}
	return nil
}

// FaultLoad owns the -faults intensity flag: a scale factor over the
// default deterministic fault plan.
type FaultLoad struct {
	// Load is the flag value; 0 disables fault injection.
	Load float64
}

// Register installs the -faults flag on fs.
func (f *FaultLoad) Register(fs *flag.FlagSet) {
	fs.Float64Var(&f.Load, "faults", 0, "fault-injection intensity: scales the default deterministic fault plan (0 = reliable network)")
}

// Spec returns the scaled fault spec for the seed and horizon, or nil
// when the load is zero — ready to set on a jobspec.Spec.
func (f *FaultLoad) Spec(seed uint64, horizonSec float64) *faults.Spec {
	if f.Load <= 0 {
		return nil
	}
	spec := faults.DefaultSpec(seed, horizonSec).Scale(f.Load)
	return &spec
}

// PrintFaults prints the run's fault-ledger summary line; nil (no plan)
// prints nothing.
func PrintFaults(rep *faults.Report) {
	if rep == nil {
		return
	}
	fmt.Printf("faults: %d injected, %d survived, %d fatal (node failures %d, lost requests %d, charger breakdowns %d, sink outages %d)\n",
		rep.Injected(), rep.Survived(), rep.Fatal(),
		rep.NodeFailures, rep.RequestsLost, rep.ChargerBreakdowns, rep.SinkOutages)
}

// RunDaemon submits the spec to the wrsncsad daemon at baseURL, waits for
// the terminal state, and prints the summary plus the outcome digest.
func RunDaemon(ctx context.Context, baseURL string, spec jobspec.Spec) error {
	c := client.New(baseURL)
	st, err := c.SubmitWait(ctx, spec)
	if err != nil {
		return fmt.Errorf("daemon submit: %w", err)
	}
	fmt.Printf("\nsubmitted job %s to %s\n", st.ID, baseURL)
	st, err = c.Wait(ctx, st.ID, 250*time.Millisecond)
	if err != nil {
		return fmt.Errorf("daemon wait: %w", err)
	}
	if st.Error != nil {
		return fmt.Errorf("daemon job %s: %s: %s", st.ID, st.Error.Kind, st.Error.Message)
	}
	if s := st.Summary; s != nil {
		fmt.Printf("mode: %s, dead %d, key dead %d/%d, requests served %d/%d, energy %.2f MJ\n",
			s.Solver, s.DeadTotal, s.KeyDead, s.KeyNodes, s.RequestsServed, s.RequestsIssued, s.EnergySpentJ/1e6)
		if spec.Kind == jobspec.KindAttack {
			fmt.Printf("detected: %v, caught: %v\n", s.Detected, s.Caught)
		}
	}
	fmt.Printf("outcome digest: %s\n", st.Digest)
	return nil
}
