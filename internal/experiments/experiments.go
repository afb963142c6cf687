// Package experiments implements one driver per reconstructed figure and
// table of the evaluation (see DESIGN.md for the R-Fig/R-Tab index). Each
// driver returns a text table plus the CSV series behind the figure, so
// cmd/experiments can regenerate the full evaluation from scratch.
//
// Drivers are context-aware — `func(ctx, cfg) (*Output, error)` — and the
// campaign-heavy sweeps fan their seed replications and sweep points out
// over a bounded worker pool (see the engine subpackage). Parallel runs
// are deterministic: for a fixed BaseSeed the rendered tables, CSV series
// and notes are byte-identical at any worker count.
package experiments

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"time"

	"github.com/reprolab/wrsn-csa/internal/experiments/engine"
	"github.com/reprolab/wrsn-csa/internal/jobspec"
	"github.com/reprolab/wrsn-csa/internal/metrics"
	"github.com/reprolab/wrsn-csa/internal/obs"
	"github.com/reprolab/wrsn-csa/internal/report"
)

// Config scopes an experiment run. Construct it with NewConfig and
// functional options; direct struct literals remain valid for existing
// callers but new code should prefer the options.
type Config struct {
	// Quick shrinks sweeps and seed counts for CI/tests; the full runs
	// reproduce the evaluation at paper scale.
	Quick bool
	// Seeds is the number of independent seeds averaged per point;
	// non-positive gets 5 (2 when Quick).
	Seeds int
	// BaseSeed offsets the seed sequence for independent replications.
	BaseSeed uint64
	// Workers bounds the experiment worker pool; non-positive sizes the
	// pool to the hardware (GOMAXPROCS). Workers=1 reproduces the
	// sequential execution exactly — and any other value produces
	// byte-identical output anyway; only the wall clock changes.
	Workers int
	// Probe receives run telemetry (per-job latency, pool utilization;
	// see the engine package). Nil gets the no-op probe. Telemetry is
	// observability only: rendered tables, notes and CSV series stay
	// byte-identical with or without a recording probe.
	Probe obs.Probe
	// JobTimeout bounds each campaign job of a sweep; zero means none. A
	// job that overruns fails with a timeout error carrying its index;
	// the rest of the sweep still completes (a pool runs every job).
	JobTimeout time.Duration
	// Dispatch, when non-nil, ships each campaign job to a worker
	// process (see internal/distengine) instead of running it
	// in-process: the sweep's serializable job specs — carrying cached
	// world snapshots — go through this function one at a time, under
	// the same engine pool that schedules in-process jobs. Rendered
	// output is byte-identical either way; only where the CPU burns
	// changes. Analytic drivers (pure planning, the real-time testbed)
	// ignore it and stay local.
	Dispatch Dispatcher
}

// Dispatcher executes one serializable campaign job somewhere else — a
// worker process, a remote host — and returns its result.
// (*distengine.Pool).Submit satisfies this signature.
type Dispatcher func(ctx context.Context, spec jobspec.Spec) (*jobspec.Result, error)

// Option mutates a Config under construction; see NewConfig.
type Option func(*Config)

// NewConfig assembles a Config from functional options:
//
//	cfg := experiments.NewConfig(
//		experiments.WithQuick(true),
//		experiments.WithWorkers(8),
//	)
func NewConfig(opts ...Option) Config {
	var c Config
	for _, o := range opts {
		o(&c)
	}
	return c
}

// WithQuick shrinks sweeps and seed counts for CI/tests.
func WithQuick(quick bool) Option { return func(c *Config) { c.Quick = quick } }

// WithSeeds sets the number of independent seeds averaged per point
// (non-positive keeps the default).
func WithSeeds(n int) Option { return func(c *Config) { c.Seeds = n } }

// WithBaseSeed offsets the seed sequence for independent replications.
func WithBaseSeed(seed uint64) Option { return func(c *Config) { c.BaseSeed = seed } }

// WithWorkers bounds the worker pool (non-positive: GOMAXPROCS).
func WithWorkers(n int) Option { return func(c *Config) { c.Workers = n } }

// WithProbe attaches a telemetry probe to the run (nil: disabled).
func WithProbe(p obs.Probe) Option { return func(c *Config) { c.Probe = p } }

// WithJobTimeout bounds each sweep job's wall clock (zero: unbounded).
func WithJobTimeout(d time.Duration) Option { return func(c *Config) { c.JobTimeout = d } }

// WithDispatch routes campaign jobs through a distributed dispatcher
// (nil: run in-process).
func WithDispatch(d Dispatcher) Option { return func(c *Config) { c.Dispatch = d } }

func (c Config) seeds() int {
	if c.Seeds > 0 {
		return c.Seeds
	}
	if c.Quick {
		return 2
	}
	return 5
}

func (c Config) seed(i int) uint64 { return c.BaseSeed + 1000 + uint64(i)*7919 }

// workers resolves the configured pool size.
func (c Config) workers() int {
	if c.Workers > 0 {
		return c.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// probe resolves the configured probe (never nil).
func (c Config) probe() obs.Probe { return obs.Or(c.Probe) }

// PointTiming is the wall-clock cost of one merged sweep point (typically
// one table row: every seed replication behind it, summed).
type PointTiming struct {
	Label   string
	Elapsed time.Duration
}

// Timing is the performance telemetry of one experiment run. It is
// observability only — never rendered into the deterministic table/CSV
// output (wall clocks vary run to run; the results must not).
type Timing struct {
	// Wall is the experiment's end-to-end wall clock (filled by Run).
	Wall time.Duration
	// Workers is the pool size the run used (filled by Run).
	Workers int
	// Points carries per-sweep-point campaign timing for drivers that
	// fan out over the engine; empty for cheap analytic drivers.
	Points []PointTiming
}

// Output is one experiment's result bundle.
type Output struct {
	// ID and Title identify the reconstructed figure/table.
	ID, Title string
	// Table is the human-readable result.
	Table *report.Table
	// XName and Series carry the figure's data for CSV export (may be
	// empty for pure tables).
	XName  string
	Series []*metrics.Series
	// Notes records caveats and the expected shape from the paper.
	Notes []string
	// Timing is the run's performance telemetry (not part of the
	// deterministic output).
	Timing Timing
}

// Runner executes one experiment. Implementations must honor ctx
// cancellation promptly (campaign loops checkpoint it) and must keep
// their rendered output independent of Config.Workers.
type Runner func(ctx context.Context, cfg Config) (*Output, error)

// Experiment pairs an ID with its runner.
type Experiment struct {
	ID    string
	Title string
	Run   Runner
}

// Run executes one experiment with wall-clock accounting: the elapsed
// time and effective worker count land in Output.Timing.
func Run(ctx context.Context, e Experiment, cfg Config) (*Output, error) {
	start := time.Now()
	out, err := e.Run(ctx, cfg)
	if err != nil {
		return nil, err
	}
	out.Timing.Wall = time.Since(start)
	out.Timing.Workers = cfg.workers()
	return out, nil
}

// All returns every experiment in the reconstructed evaluation, in
// presentation order.
func All() []Experiment {
	return []Experiment{
		{ID: "rfig1", Title: "Rectifier nonlinearity: DC out vs RF in", Run: RunRectifierCurve},
		{ID: "rfig2", Title: "Coherent superposition: received power vs phase offset", Run: RunSuperpositionSweep},
		{ID: "rfig3", Title: "Null depth vs distance and phase jitter", Run: RunNullSteering},
		{ID: "rfig4", Title: "Key-node exhaustion vs network size (solver comparison)", Run: RunExhaustionVsN},
		{ID: "rfig5", Title: "Cover utility vs charger budget", Run: RunUtilityVsBudget},
		{ID: "rfig6", Title: "Detection ROC: CSA vs Direct attacker", Run: RunDetectionROC},
		{ID: "rfig7", Title: "Empirical approximation ratio: CSA vs exact OPT", Run: RunApproxRatio},
		{ID: "rfig8", Title: "Network lifetime under attack vs legitimate service", Run: RunLifetime},
		{ID: "rfig9", Title: "CSA planning runtime vs instance size", Run: RunRuntime},
		{ID: "rtab1", Title: "Headline: exhaustion and stealth across scenarios", Run: RunHeadline},
		{ID: "rtab2", Title: "TCP software-in-the-loop test bed", Run: RunTestbed},
		{ID: "rtab3", Title: "Ablations: which attack ingredients matter", Run: RunAblations},
		{ID: "rfig10", Title: "Extension: harvest-verification countermeasure", Run: RunDefenseVerification},
		{ID: "rfig11", Title: "Extension: neighbor-witnessing countermeasure", Run: RunDefenseWitness},
		{ID: "rtab4", Title: "Extension: multi-charger fleet scaling", Run: RunFleet},
		{ID: "rfig12", Title: "Extension: constrained-null counter-countermeasure", Run: RunCounterWitness},
		{ID: "rtab5", Title: "Extension: routing-policy mitigation", Run: RunRoutingMitigation},
		{ID: "rfig13", Title: "Extension: structural robustness under removal", Run: RunRobustness},
		{ID: "rtab6", Title: "Extension: on-demand scheduler comparison", Run: RunSchedulers},
		{ID: "rfig14", Title: "Extension: attack resilience under injected faults", Run: RunFaultTolerance},
	}
}

// ErrUnknownExperiment reports a ByID lookup that matched no experiment.
var ErrUnknownExperiment = errors.New("experiments: unknown experiment")

// byIDIndex is the lookup table behind ByID, built once.
var byIDIndex = sync.OnceValue(func() map[string]Experiment {
	all := All()
	m := make(map[string]Experiment, len(all))
	for _, e := range all {
		m[normalizeID(e.ID)] = e
	}
	return m
})

// normalizeID canonicalizes a user-supplied experiment ID: IDs are
// case-insensitive and tolerate surrounding whitespace.
func normalizeID(id string) string { return strings.ToLower(strings.TrimSpace(id)) }

// ByID returns the experiment with the given ID (case-insensitive,
// whitespace-tolerant). Unknown IDs report ErrUnknownExperiment.
func ByID(id string) (Experiment, error) {
	if e, ok := byIDIndex()[normalizeID(id)]; ok {
		return e, nil
	}
	return Experiment{}, fmt.Errorf("%w: %q", ErrUnknownExperiment, id)
}

// mapTimed fans n jobs out over the configured worker pool with
// deterministic result order, wiring the run's probe and job timeout
// into the pool. Every job runs: a panic, timeout, or error in one job
// is reported (with its index and, for panics, the stack) without
// losing the other jobs' work; see engine.MapTimedOpts.
func mapTimed[T any](ctx context.Context, cfg Config, n int, fn func(ctx context.Context, i int) (T, error)) ([]engine.Result[T], error) {
	results, err := engine.MapTimedOpts(ctx, cfg.workers(), n, cfg.probe(), engine.Options{Timeout: cfg.JobTimeout}, fn)
	if err != nil {
		// Drivers merge results positionally and cannot use a sweep with
		// holes; the aggregate error still names every failed job.
		return nil, err
	}
	return results, nil
}

// sumElapsed totals the wall clock of a contiguous job range [lo, hi) —
// the per-point cost of one merged table row.
func sumElapsed[T any](results []engine.Result[T], lo, hi int) time.Duration {
	var d time.Duration
	for _, r := range results[lo:hi] {
		d += r.Elapsed
	}
	return d
}
