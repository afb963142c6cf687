// Package service is the campaign-as-a-service layer behind
// cmd/wrsncsad: a bounded job queue with backpressure, a fixed pool of
// workers executing serializable jobspec.Spec jobs, per-job telemetry
// recorders with streaming window export, and graceful drain.
//
// Determinism is inherited, not re-implemented: every job's randomness
// derives from the seeds inside its Spec (see jobspec.Run), so outcomes
// are byte-identical to the in-process library path regardless of queue
// order, worker count, retries, or how many clients are hammering the
// daemon. The service reports each outcome's canonical digest
// (internal/digest) precisely so that identity is checkable end to end.
//
// Job hardening reuses engine.Options: each job runs as a one-job pool
// under engine.MapTimedOpts, which supplies panic capture (a panicking
// campaign surfaces as a structured job error, never a daemon crash),
// per-attempt timeouts, and bounded retry-with-backoff.
package service

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"github.com/reprolab/wrsn-csa/internal/campaign"
	"github.com/reprolab/wrsn-csa/internal/digest"
	"github.com/reprolab/wrsn-csa/internal/experiments/engine"
	"github.com/reprolab/wrsn-csa/internal/jobspec"
	"github.com/reprolab/wrsn-csa/internal/obs"
	"github.com/reprolab/wrsn-csa/internal/snapshot"
)

// Sentinel errors Submit can return; the HTTP layer maps them to status
// codes (429, 503, 400, 410).
var (
	ErrQueueFull = errors.New("service: job queue full")
	ErrDraining  = errors.New("service: draining, not accepting jobs")
	ErrNotFound  = errors.New("service: no such job")
	// ErrGone marks a job whose result was evicted under Options.MaxResults:
	// the ID was real, but the daemon no longer holds its record.
	ErrGone = errors.New("service: job result evicted")
)

// State is a job's lifecycle phase.
type State string

// Job lifecycle: queued → running → done | failed | canceled |
// checkpointed. Canceled can also strike while queued. Checkpointed is
// terminal for THIS process only: the job parked at a live checkpoint
// during drain, its spec and checkpoint stay on disk, and a daemon
// restarted with the same -persist-dir resumes it mid-flight.
const (
	StateQueued       State = "queued"
	StateRunning      State = "running"
	StateDone         State = "done"
	StateFailed       State = "failed"
	StateCanceled     State = "canceled"
	StateCheckpointed State = "checkpointed"
)

// Terminal reports whether the state is final for this process.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCanceled || s == StateCheckpointed
}

// ErrorInfo is a structured job error: a machine-readable kind plus the
// human-readable message. Kinds: "panic" (recovered job panic, message
// carries the stack), "timeout" (per-job engine.Options.Timeout),
// "canceled" (client cancel or forced drain), "campaign" (the run
// itself failed), "encode" (outcome canonicalization failed).
type ErrorInfo struct {
	Kind    string `json:"kind"`
	Message string `json:"message"`
}

// Summary is the at-a-glance result the status API carries so pollers
// rarely need the full outcome body.
type Summary struct {
	Solver         string  `json:"solver,omitempty"`
	Detected       bool    `json:"detected,omitempty"`
	Caught         bool    `json:"caught,omitempty"`
	KeyNodes       int     `json:"key_nodes,omitempty"`
	KeyDead        int     `json:"key_dead,omitempty"`
	DeadTotal      int     `json:"dead_total"`
	RequestsIssued int     `json:"requests_issued"`
	RequestsServed int     `json:"requests_served"`
	EnergySpentJ   float64 `json:"energy_spent_j"`
	Chargers       int     `json:"chargers,omitempty"`
}

// JobStatus is the wire form of a job's current state.
type JobStatus struct {
	ID          string     `json:"id"`
	State       State      `json:"state"`
	Kind        string     `json:"kind"`
	Seed        uint64     `json:"seed"`
	SubmittedAt time.Time  `json:"submitted_at"`
	StartedAt   *time.Time `json:"started_at,omitempty"`
	FinishedAt  *time.Time `json:"finished_at,omitempty"`
	Error       *ErrorInfo `json:"error,omitempty"`
	// Digest is the hex SHA-256 of the outcome's canonical JSON — the
	// same canonicalization the golden harness pins, so a daemon digest
	// is directly comparable with an in-process one.
	Digest  string   `json:"digest,omitempty"`
	Summary *Summary `json:"summary,omitempty"`
	// Resumed marks a job continued from a live checkpoint left by a
	// previous daemon rather than started from scratch.
	Resumed bool `json:"resumed,omitempty"`
	// CheckpointAt / CheckpointClockSec describe the job's latest durable
	// checkpoint: when it was written and how deep into the simulated
	// horizon the run was.
	CheckpointAt       *time.Time `json:"checkpoint_at,omitempty"`
	CheckpointClockSec float64    `json:"checkpoint_clock_sec,omitempty"`
}

// Runner executes one job's spec. The default is jobspec.RunOpts; tests
// inject blocking or panicking runners to exercise the hardening paths.
type Runner func(ctx context.Context, spec jobspec.Spec, opts jobspec.RunOptions) (*jobspec.Result, error)

// Options configures a Service. The zero value serves: 64-deep queue,
// GOMAXPROCS workers, no per-job timeout or retries.
type Options struct {
	// QueueDepth bounds the intake queue; a full queue rejects with
	// ErrQueueFull (HTTP 429 + Retry-After). Non-positive gets 64.
	QueueDepth int
	// Workers is the number of concurrent jobs; non-positive gets
	// GOMAXPROCS.
	Workers int
	// Job hardens each job exactly like a sweep job: per-attempt
	// Timeout, bounded Retries with Backoff, panic capture (always on).
	// KeepGoing is meaningless for a one-job pool and ignored.
	Job engine.Options
	// RetryAfter is the backpressure hint returned with ErrQueueFull;
	// non-positive gets 1s.
	RetryAfter time.Duration
	// Probe receives service-level telemetry (queue depth, job counts,
	// per-job latency via the engine's pool metrics); nil gets the no-op
	// probe. Per-job campaign telemetry goes to each job's own recorder.
	Probe obs.Probe
	// Runner overrides the job executor (tests); nil gets jobspec.Run.
	Runner Runner
	// MaxResults bounds how many terminal job records the daemon retains;
	// the oldest finished results are evicted first (queued and running
	// jobs are never evicted). Requests for an evicted ID return ErrGone
	// (HTTP 410). Non-positive retains everything — the pre-eviction
	// behavior, acceptable for short-lived daemons only.
	MaxResults int
	// PersistDir, when set, makes submissions durable: each accepted
	// job's spec is written to this directory and removed when the job
	// reaches a terminal state. A daemon restarted with the same
	// PersistDir re-enqueues the jobs that were queued or in flight when
	// it died. Specs carrying world snapshots resume without re-paying
	// the warm-up prefix — the snapshot rides inside the spec file.
	PersistDir string
	// CheckpointEvery, with PersistDir set, checkpoints each in-flight
	// job's live campaign state to PersistDir at this wall-clock cadence
	// (atomic tmp+rename, fsync'd). A restarted daemon resumes each job
	// mid-flight from its latest checkpoint — producing the exact result
	// an uninterrupted run would have — instead of starting over.
	// Non-positive disables live checkpointing (specs still persist, and
	// a restart re-runs from scratch, which is equally deterministic but
	// re-pays the completed prefix).
	CheckpointEvery time.Duration
	// DrainGrace bounds how long a deadline-expired Shutdown waits for
	// in-flight jobs to park at a live checkpoint before falling back to
	// cancellation. Only meaningful with checkpointing armed.
	// Non-positive gets 5s.
	DrainGrace time.Duration
}

func (o *Options) applyDefaults() {
	if o.QueueDepth <= 0 {
		o.QueueDepth = 64
	}
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.RetryAfter <= 0 {
		o.RetryAfter = time.Second
	}
	o.Probe = obs.Or(o.Probe)
	if o.Runner == nil {
		o.Runner = jobspec.RunOpts
	}
	if o.DrainGrace <= 0 {
		o.DrainGrace = 5 * time.Second
	}
	o.Job.KeepGoing = false
}

// checkpointing reports whether live job checkpointing is armed.
func (o *Options) checkpointing() bool {
	return o.PersistDir != "" && o.CheckpointEvery > 0
}

// job is the service-side record of one submission.
type job struct {
	id   string
	spec jobspec.Spec
	rec  *obs.Recorder

	// Mutable state below is guarded by Service.mu.
	state      State
	err        *ErrorInfo
	digest     string
	outcome    []byte
	summary    *Summary
	submitted  time.Time
	started    time.Time
	finished   time.Time
	cancel     context.CancelFunc // non-nil while running
	cancelWant bool               // client asked for cancellation
	done       chan struct{}      // closed on terminal state
	resumed    bool               // continued from a previous daemon's checkpoint
	ckptAt     time.Time          // latest durable checkpoint write (zero: none yet)
	ckptClock  float64            // sim clock of that checkpoint
}

// Service is the job engine: bounded queue in, worker pool through,
// statuses/outcomes/telemetry out.
type Service struct {
	opts Options

	mu    sync.Mutex
	jobs  map[string]*job
	order []string
	// evicted remembers IDs whose terminal records were dropped under
	// MaxResults, so requests for them answer ErrGone (410) rather than
	// ErrNotFound. An entry costs a few bytes — the map is the reason the
	// daemon's memory stays flat while the jobs map is bounded.
	evicted  map[string]struct{}
	finished int // terminal records currently retained
	queue    chan *job
	drain    bool
	seq      int

	baseCtx    context.Context
	baseCancel context.CancelFunc
	workers    sync.WaitGroup
	// stopJobs, once set, tells every in-flight checkpoint plan's Stop
	// hook to park the job at its next barrier (drain-to-checkpoint).
	stopJobs atomic.Bool
}

// New starts a Service with its worker pool running. With
// Options.PersistDir set, jobs persisted by a previous daemon — queued
// or in flight at its death — are re-enqueued (in submission order,
// keeping their IDs) before the pool starts, so a restart resumes where
// the old process stopped.
func New(opts Options) *Service {
	opts.applyDefaults()
	ctx, cancel := context.WithCancel(context.Background())
	s := &Service{
		opts:       opts,
		jobs:       make(map[string]*job),
		evicted:    make(map[string]struct{}),
		baseCtx:    ctx,
		baseCancel: cancel,
	}
	resumed := s.loadPersisted()
	// Resumed jobs must all fit the intake queue or the restart would
	// drop work; grow the queue when the backlog exceeds the configured
	// depth.
	depth := opts.QueueDepth
	if len(resumed) > depth {
		depth = len(resumed)
	}
	s.queue = make(chan *job, depth)
	for _, j := range resumed {
		s.jobs[j.id] = j
		s.order = append(s.order, j.id)
		s.queue <- j
	}
	s.workers.Add(opts.Workers)
	for i := 0; i < opts.Workers; i++ {
		go s.worker()
	}
	return s
}

// Workers returns the resolved worker-pool size.
func (s *Service) Workers() int { return s.opts.Workers }

// QueueDepth returns the resolved intake-queue capacity.
func (s *Service) QueueDepth() int { return s.opts.QueueDepth }

// RetryAfter returns the backpressure hint for full-queue rejections.
func (s *Service) RetryAfter() time.Duration { return s.opts.RetryAfter }

// Submit validates and enqueues a job, returning its status snapshot.
// A full queue returns ErrQueueFull — the caller sheds load instead of
// the daemon growing without bound. A draining service returns
// ErrDraining.
func (s *Service) Submit(spec jobspec.Spec) (JobStatus, error) {
	if err := spec.Validate(); err != nil {
		return JobStatus{}, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.drain {
		return JobStatus{}, ErrDraining
	}
	s.seq++
	j := &job{
		id:        fmt.Sprintf("job-%d", s.seq),
		spec:      spec,
		rec:       obs.NewRecorder(),
		state:     StateQueued,
		submitted: time.Now(),
		done:      make(chan struct{}),
	}
	select {
	case s.queue <- j:
	default:
		s.seq--
		s.probeAdd("service.rejected_full", 1)
		return JobStatus{}, ErrQueueFull
	}
	s.jobs[j.id] = j
	s.order = append(s.order, j.id)
	s.persistLocked(j)
	s.probeAdd("service.submitted", 1)
	s.probeGauges()
	return s.statusLocked(j), nil
}

// Job returns the status of one job. Evicted jobs answer ErrGone.
func (s *Service) Job(id string) (JobStatus, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, err := s.jobLocked(id)
	if err != nil {
		return JobStatus{}, err
	}
	return s.statusLocked(j), nil
}

// jobLocked resolves an ID, distinguishing never-seen (ErrNotFound) from
// evicted (ErrGone). Callers hold s.mu.
func (s *Service) jobLocked(id string) (*job, error) {
	if j, ok := s.jobs[id]; ok {
		return j, nil
	}
	if _, ok := s.evicted[id]; ok {
		return nil, fmt.Errorf("%w: %s", ErrGone, id)
	}
	return nil, ErrNotFound
}

// Jobs returns every job's status in submission order.
func (s *Service) Jobs() []JobStatus {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]JobStatus, 0, len(s.order))
	for _, id := range s.order {
		out = append(out, s.statusLocked(s.jobs[id]))
	}
	return out
}

// Cancel requests cancellation: a queued job is canceled on the spot, a
// running job has its context canceled and surfaces a structured
// "canceled" error shortly after. Canceling a terminal job is a no-op.
func (s *Service) Cancel(id string) (JobStatus, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, err := s.jobLocked(id)
	if err != nil {
		return JobStatus{}, err
	}
	switch {
	case j.state.Terminal():
		// Nothing to do.
	case j.state == StateQueued:
		s.finishLocked(j, StateCanceled, &ErrorInfo{Kind: "canceled", Message: "canceled while queued"})
	default:
		j.cancelWant = true
		if j.cancel != nil {
			j.cancel()
		}
	}
	return s.statusLocked(j), nil
}

// Outcome returns a done job's canonical outcome JSON and digest.
func (s *Service) Outcome(id string) (dig string, body []byte, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, err := s.jobLocked(id)
	if err != nil {
		return "", nil, err
	}
	if j.state != StateDone {
		return "", nil, fmt.Errorf("service: job %s is %s, not done", id, j.state)
	}
	return j.digest, j.outcome, nil
}

// Telemetry snapshots a job's recorder (cumulative view, available at
// any phase — mid-run it reflects progress so far).
func (s *Service) Telemetry(id string) (*obs.Snapshot, error) {
	j, err := s.lookup(id)
	if err != nil {
		return nil, err
	}
	return j.rec.Snapshot(), nil
}

// TelemetryWindow cuts the next incremental window of a job's recorder.
// Windows are a single-consumer cursor: concurrent streams over the same
// job partition the deltas among themselves.
func (s *Service) TelemetryWindow(id string) (*obs.Window, error) {
	j, err := s.lookup(id)
	if err != nil {
		return nil, err
	}
	return j.rec.WindowSnapshot(), nil
}

// WaitDone blocks until the job reaches a terminal state or ctx ends.
func (s *Service) WaitDone(ctx context.Context, id string) (JobStatus, error) {
	j, err := s.lookup(id)
	if err != nil {
		return JobStatus{}, err
	}
	select {
	case <-j.done:
		return s.Job(id)
	case <-ctx.Done():
		return JobStatus{}, ctx.Err()
	}
}

// Draining reports whether Shutdown has begun.
func (s *Service) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.drain
}

// Counts tallies jobs by state.
func (s *Service) Counts() map[State]int {
	s.mu.Lock()
	defer s.mu.Unlock()
	m := make(map[State]int, 5)
	for _, j := range s.jobs {
		m[j.state]++
	}
	return m
}

// QueueLen is the current intake-queue occupancy.
func (s *Service) QueueLen() int { return len(s.queue) }

// Shutdown drains gracefully: intake stops (Submit returns ErrDraining),
// queued and in-flight jobs run to completion, workers exit. If ctx
// expires first and checkpointing is armed, in-flight jobs are told to
// park at their next checkpoint barrier (they finish as "checkpointed",
// with spec and checkpoint left on disk for the next daemon to resume);
// jobs that still haven't parked after Options.DrainGrace — and all
// in-flight jobs when checkpointing is off — are canceled the hard way
// and finish as structured "canceled" failures. Shutdown returns
// ctx.Err() whenever the deadline fired. Shutdown is idempotent;
// concurrent calls all wait for the same drain.
func (s *Service) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	first := !s.drain
	s.drain = true
	s.mu.Unlock()
	if first {
		close(s.queue)
	}
	done := make(chan struct{})
	go func() {
		s.workers.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		s.stopJobs.Store(true)
		grace := time.Duration(0)
		if s.opts.checkpointing() {
			grace = s.opts.DrainGrace
		}
		t := time.NewTimer(grace)
		defer t.Stop()
		select {
		case <-done:
		case <-t.C:
			s.baseCancel()
			<-done
		}
		return ctx.Err()
	}
}

// checkpointSink durably writes one job checkpoint. Best-effort like
// spec persistence: a write failure is counted, not fatal — the run
// continues, falling back to its previous checkpoint (or a from-scratch
// re-run) on restart, either of which reproduces the same result.
func (s *Service) checkpointSink(j *job, snap *snapshot.Snapshot) error {
	b, err := snap.Encode()
	if err == nil {
		err = atomicWrite(s.ckptPath(j.id), b)
	}
	if err != nil {
		s.probeAdd("service.persist_errors", 1)
		return nil
	}
	s.mu.Lock()
	j.ckptAt = time.Now()
	j.ckptClock = snap.ClockSec()
	s.mu.Unlock()
	s.probeAdd("service.checkpoints", 1)
	return nil
}

// CheckpointAge reports how long ago the most at-risk running job last
// reached a durable safe point — its latest checkpoint, or its start
// when it has none yet. ok is false when nothing is running.
func (s *Service) CheckpointAge() (sec float64, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	var oldest time.Time
	for _, j := range s.jobs {
		if j.state != StateRunning {
			continue
		}
		base := j.started
		if j.ckptAt.After(base) {
			base = j.ckptAt
		}
		if !ok || base.Before(oldest) {
			oldest = base
			ok = true
		}
	}
	if !ok {
		return 0, false
	}
	return time.Since(oldest).Seconds(), true
}

func (s *Service) lookup(id string) (*job, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.jobLocked(id)
}

// worker drains the queue until it closes (Shutdown) — queued jobs are
// finished, not dropped, unless the drain deadline forces cancellation.
func (s *Service) worker() {
	defer s.workers.Done()
	for j := range s.queue {
		s.runJob(j)
	}
}

// runJob executes one job through the hardened engine path: a one-job
// pool supplies panic capture, per-attempt timeout, and bounded retry
// from the same engine.Options the experiment sweeps use.
func (s *Service) runJob(j *job) {
	s.mu.Lock()
	if j.state.Terminal() { // canceled while queued
		s.mu.Unlock()
		return
	}
	ctx, cancel := context.WithCancel(s.baseCtx)
	if j.cancelWant { // cancel raced the dequeue
		cancel()
	}
	j.cancel = cancel
	j.state = StateRunning
	j.started = time.Now()
	s.probeGauges()
	s.mu.Unlock()
	defer cancel()

	ropts := jobspec.RunOptions{Probe: j.rec}
	if s.opts.checkpointing() {
		ropts.Checkpoint = &campaign.CheckpointPlan{
			Every: s.opts.CheckpointEvery,
			Sink:  func(snap *snapshot.Snapshot) error { return s.checkpointSink(j, snap) },
			Stop:  s.stopJobs.Load,
		}
	}
	// ErrStopped is a drain parking, not a failure: intercept it inside
	// the attempt so the engine's retry machinery never re-runs a job
	// that just checkpointed (a retry would start over and overwrite the
	// checkpoint with a barrier-1 capture).
	var stopped atomic.Bool
	results, err := engine.MapTimedOpts(ctx, 1, 1, s.opts.Probe, s.opts.Job, func(ctx context.Context, _ int) (*jobspec.Result, error) {
		res, rerr := s.opts.Runner(ctx, j.spec, ropts)
		if errors.Is(rerr, campaign.ErrStopped) {
			stopped.Store(true)
			return nil, nil
		}
		return res, rerr
	})

	// One canonical pass, outside the lock: the served body and the
	// digest are the same bytes.
	var (
		body []byte
		dig  string
		derr error
	)
	if err == nil && !stopped.Load() {
		if body, derr = results[0].Value.CanonicalJSON(); derr == nil {
			dig = digest.Hash(body)
		}
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if stopped.Load() {
		s.finishLocked(j, StateCheckpointed, &ErrorInfo{
			Kind:    "checkpointed",
			Message: "parked at a live checkpoint during drain; a daemon restarted with the same persist dir resumes it",
		})
		return
	}
	if err != nil {
		s.finishLocked(j, failState(err), classify(err))
		return
	}
	if derr != nil {
		s.finishLocked(j, StateFailed, &ErrorInfo{Kind: "encode", Message: derr.Error()})
		return
	}
	j.outcome = body
	j.digest = dig
	j.summary = summarize(results[0].Value)
	s.finishLocked(j, StateDone, nil)
}

// finishLocked moves a job to a terminal state and applies result
// eviction. Most terminal states drop the job's durable files (no more
// restart protection needed); StateCheckpointed deliberately keeps both
// the spec and the checkpoint on disk — they ARE the restart handoff.
// Callers hold s.mu.
func (s *Service) finishLocked(j *job, st State, e *ErrorInfo) {
	j.state = st
	j.err = e
	j.finished = time.Now()
	close(j.done)
	if st != StateCheckpointed {
		s.unpersistLocked(j)
	}
	s.finished++
	switch st {
	case StateDone:
		s.probeAdd("service.done", 1)
	case StateCanceled:
		s.probeAdd("service.canceled", 1)
	case StateCheckpointed:
		s.probeAdd("service.checkpointed", 1)
	default:
		s.probeAdd("service.failed", 1)
	}
	s.evictLocked()
	s.probeGauges()
}

// evictLocked enforces Options.MaxResults: while more terminal records
// are retained than allowed, the oldest (by submission order) is dropped
// from the jobs map and remembered in the evicted set. Queued and
// running jobs are never touched. Callers hold s.mu.
func (s *Service) evictLocked() {
	if s.opts.MaxResults <= 0 {
		return
	}
	for i := 0; s.finished > s.opts.MaxResults && i < len(s.order); {
		id := s.order[i]
		j := s.jobs[id]
		if j == nil || !j.state.Terminal() {
			i++
			continue
		}
		delete(s.jobs, id)
		s.evicted[id] = struct{}{}
		s.order = append(s.order[:i], s.order[i+1:]...)
		s.finished--
		s.probeAdd("service.evicted", 1)
	}
}

// classify converts a job error into its structured wire form.
func classify(err error) *ErrorInfo {
	var pe *engine.PanicError
	switch {
	case errors.As(err, &pe):
		return &ErrorInfo{Kind: "panic", Message: pe.Error()}
	case errors.Is(err, context.Canceled):
		return &ErrorInfo{Kind: "canceled", Message: "canceled mid-run"}
	case errors.Is(err, context.DeadlineExceeded):
		return &ErrorInfo{Kind: "timeout", Message: err.Error()}
	default:
		return &ErrorInfo{Kind: "campaign", Message: err.Error()}
	}
}

// failState maps an error to canceled vs failed.
func failState(err error) State {
	if errors.Is(err, context.Canceled) {
		return StateCanceled
	}
	return StateFailed
}

// summarize extracts the status-API summary from a result.
func summarize(r *jobspec.Result) *Summary {
	if r.Fleet != nil {
		f := r.Fleet
		return &Summary{
			Solver:         "legit-fleet",
			DeadTotal:      f.DeadTotal,
			RequestsIssued: f.RequestsIssued,
			RequestsServed: f.RequestsServed,
			EnergySpentJ:   f.EnergySpentJ,
			Chargers:       f.Chargers,
		}
	}
	o := r.Outcome
	return &Summary{
		Solver:         o.Solver,
		Detected:       o.Detected,
		Caught:         o.Caught,
		KeyNodes:       len(o.KeyNodes),
		KeyDead:        o.KeyDead,
		DeadTotal:      o.DeadTotal,
		RequestsIssued: o.RequestsIssued,
		RequestsServed: o.RequestsServed,
		EnergySpentJ:   o.EnergySpentJ,
	}
}

// statusLocked snapshots a job's wire status. Callers hold s.mu.
func (s *Service) statusLocked(j *job) JobStatus {
	st := JobStatus{
		ID:          j.id,
		State:       j.state,
		Kind:        j.spec.Kind,
		Seed:        j.spec.Campaign.Seed,
		SubmittedAt: j.submitted,
		Error:       j.err,
		Digest:      j.digest,
		Summary:     j.summary,
		Resumed:     j.resumed,
	}
	if !j.ckptAt.IsZero() {
		t := j.ckptAt
		st.CheckpointAt = &t
		st.CheckpointClockSec = j.ckptClock
	}
	if !j.started.IsZero() {
		t := j.started
		st.StartedAt = &t
	}
	if !j.finished.IsZero() {
		t := j.finished
		st.FinishedAt = &t
	}
	return st
}

func (s *Service) probeAdd(name string, v float64) {
	if s.opts.Probe.Enabled() {
		s.opts.Probe.Add(name, v)
	}
}

// probeGauges refreshes the queue/running gauges. Callers hold s.mu.
func (s *Service) probeGauges() {
	if !s.opts.Probe.Enabled() {
		return
	}
	s.opts.Probe.Set("service.queue_len", float64(len(s.queue)))
	running := 0
	for _, j := range s.jobs {
		if j.state == StateRunning {
			running++
		}
	}
	s.opts.Probe.Set("service.running", float64(running))
}
