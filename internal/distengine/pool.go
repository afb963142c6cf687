package distengine

import (
	"context"
	"encoding/json"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"github.com/reprolab/wrsn-csa/internal/experiments/engine"
	"github.com/reprolab/wrsn-csa/internal/jobspec"
	"github.com/reprolab/wrsn-csa/internal/obs"
)

// DefaultCrashRetries is how many times a job whose worker died mid-run
// is re-sent to a surviving shard before the failure surfaces. Specs
// derive all randomness from their own seeds, so a failover re-run is
// bit-identical to what the dead worker would have produced.
const DefaultCrashRetries = 2

// defaultCancelGrace bounds how long Submit waits, after sending a
// cancel frame, for the worker to ack it before declaring the worker
// wedged and killing that shard.
const defaultCancelGrace = 10 * time.Second

// RemoteError is a job failure reported by a worker: an ordinary error,
// a recovered worker-side panic (with its stack), or a worker-initiated
// cancellation. It reaches callers wrapped in the engine's usual
// *engine.JobError, so aggregated keep-going errors stay attributable to
// their job index.
type RemoteError struct {
	// Kind is "error", "panic" or "canceled".
	Kind string
	// Msg is the worker-side error text.
	Msg string
	// Stack is the worker goroutine stack (panic kind only).
	Stack string
}

// Error formats the remote failure; panic kinds include the stack.
func (e *RemoteError) Error() string {
	if e.Kind == errKindPanic {
		return fmt.Sprintf("remote panic: %s\n%s", e.Msg, e.Stack)
	}
	return fmt.Sprintf("remote %s: %s", e.Kind, e.Msg)
}

// WorkerLostError reports a job that could not complete because worker
// processes kept dying under it (or none were left alive to take it).
type WorkerLostError struct {
	// Shard is the index of the last shard that died holding the job,
	// or -1 when no shard could be acquired at all.
	Shard int
	// Attempts is how many shards the job was tried on.
	Attempts int
}

// Error formats the loss.
func (e *WorkerLostError) Error() string {
	if e.Shard < 0 {
		return "distengine: no live workers"
	}
	return fmt.Sprintf("distengine: worker (shard %d) lost mid-job after %d attempt(s)", e.Shard, e.Attempts)
}

// shard is one worker connection plus its coordinator-side bookkeeping.
type shard struct {
	idx  int
	conn wireConn
	// kill force-terminates the worker (process kill or conn close);
	// reap, when non-nil, waits for the worker process to be collected.
	kill func()
	reap func()

	mu      sync.Mutex
	dead    bool
	pending map[int64]chan frame
	// deadCh closes when the shard's read loop exits — every waiter
	// multiplexes it against its own result channel.
	deadCh chan struct{}
}

// Pool shards jobs across worker processes while preserving the
// in-process engine's contracts. Submit is the thread-safe primitive
// (lease a free shard, ship the spec, await the result, fail over on
// worker death); Run layers engine.MapTimedOpts on top of Submit, so
// ordering, fail-fast, keep-going aggregation, timeout and retry
// semantics are the engine's own code, not a re-implementation.
type Pool struct {
	shards       []*shard
	free         chan *shard
	crashRetries int
	cancelGrace  time.Duration

	nextID   atomic.Int64
	alive    atomic.Int32
	allDead  chan struct{}
	deadOnce sync.Once

	closeOnce sync.Once
}

// newPool wires up bookkeeping and starts one read loop per shard. Every
// shard must already have completed its hello handshake.
func newPool(shards []*shard, crashRetries int) *Pool {
	if crashRetries < 0 {
		crashRetries = DefaultCrashRetries
	}
	p := &Pool{
		shards:       shards,
		free:         make(chan *shard, len(shards)),
		crashRetries: crashRetries,
		cancelGrace:  defaultCancelGrace,
		allDead:      make(chan struct{}),
	}
	p.alive.Store(int32(len(shards)))
	for _, s := range shards {
		s.pending = make(map[int64]chan frame)
		s.deadCh = make(chan struct{})
		p.free <- s
		go p.readLoop(s)
	}
	return p
}

// Shards returns the pool's size, live or not.
func (p *Pool) Shards() int { return len(p.shards) }

// Alive returns how many shards are still serving jobs.
func (p *Pool) Alive() int { return int(p.alive.Load()) }

// KillShard force-terminates shard i's worker — the crash-drill hook the
// fence uses to prove failover. The read loop notices the broken
// connection and retires the shard; any job in flight there fails over.
func (p *Pool) KillShard(i int) {
	if i < 0 || i >= len(p.shards) {
		return
	}
	p.shards[i].kill()
}

// readLoop is shard s's single reader: it routes result frames to their
// waiting Submit by job ID and, when the connection dies, retires the
// shard — marking it dead, waking every waiter, and never returning it
// to the free list.
func (p *Pool) readLoop(s *shard) {
	for {
		f, err := s.conn.recv()
		if err != nil {
			p.retire(s)
			return
		}
		if f.Type != frameResult {
			continue
		}
		s.mu.Lock()
		ch, ok := s.pending[f.ID]
		if ok {
			delete(s.pending, f.ID)
		}
		s.mu.Unlock()
		if ok {
			ch <- f // buffered; never blocks
		}
	}
}

// retire marks a shard dead exactly once: kill the worker, wake waiters,
// drop the pool's live count (closing allDead at zero so acquisitions
// fail instead of hanging forever).
func (p *Pool) retire(s *shard) {
	s.mu.Lock()
	if s.dead {
		s.mu.Unlock()
		return
	}
	s.dead = true
	close(s.deadCh)
	s.mu.Unlock()
	s.kill()
	if p.alive.Add(-1) == 0 {
		p.deadOnce.Do(func() { close(p.allDead) })
	}
}

// acquire leases a free live shard, or reports why none will ever come.
func (p *Pool) acquire(ctx context.Context) (*shard, error) {
	for {
		select {
		case s := <-p.free:
			s.mu.Lock()
			dead := s.dead
			s.mu.Unlock()
			if dead {
				// Raced with retirement; this shard never re-enters free.
				continue
			}
			return s, nil
		case <-p.allDead:
			return nil, &WorkerLostError{Shard: -1}
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
}

// release returns a shard to the free list unless it has died.
func (p *Pool) release(s *shard) {
	s.mu.Lock()
	dead := s.dead
	s.mu.Unlock()
	if !dead {
		p.free <- s
	}
}

// Submit runs one spec on some worker and returns its result. Safe for
// concurrent use. A worker that dies mid-job gets the job re-sent to a
// surviving shard up to the pool's crash-retry budget; the re-run is
// bit-identical because the spec carries every seed. Context
// cancellation sends the worker a cancel frame and waits (bounded by the
// cancel grace) for the ack before the shard is reused — a worker that
// ignores the cancel is killed as wedged. These crash retries are
// transport-level failover and are invisible to engine.Options.Retries,
// which stays the per-job *attempt* budget.
func (p *Pool) Submit(ctx context.Context, spec jobspec.Spec) (*jobspec.Result, error) {
	specJSON, err := json.Marshal(spec)
	if err != nil {
		return nil, fmt.Errorf("distengine: encode spec: %w", err)
	}
	var lastShard int
	for attempt := 0; ; attempt++ {
		res, err, crashed := p.trySubmit(ctx, spec.Kind, specJSON, &lastShard)
		if !crashed {
			return res, err
		}
		if attempt >= p.crashRetries {
			return nil, &WorkerLostError{Shard: lastShard, Attempts: attempt + 1}
		}
	}
}

// trySubmit runs the spec (of the given kind) on one leased shard.
// crashed=true means the shard died mid-job and the caller may fail
// over; any other failure is final for this attempt.
func (p *Pool) trySubmit(ctx context.Context, kind string, specJSON []byte, lastShard *int) (_ *jobspec.Result, _ error, crashed bool) {
	s, err := p.acquire(ctx)
	if err != nil {
		return nil, err, false
	}
	*lastShard = s.idx

	id := p.nextID.Add(1)
	ch := make(chan frame, 1)
	s.mu.Lock()
	s.pending[id] = ch
	s.mu.Unlock()
	unregister := func() {
		s.mu.Lock()
		delete(s.pending, id)
		s.mu.Unlock()
	}

	if err := s.conn.send(frame{Type: frameJob, ID: id, Spec: specJSON}); err != nil {
		unregister()
		p.retire(s)
		return nil, err, true
	}

	select {
	case f := <-ch:
		p.release(s)
		return decodeResultFrame(ctx, kind, f)
	case <-s.deadCh:
		unregister()
		return nil, nil, true
	case <-ctx.Done():
		// Ask the worker to abandon the job, then wait for the ack (its
		// result frame) so the shard is quiescent before reuse. A worker
		// that never acks within the grace is wedged: kill it rather than
		// lease it out again.
		_ = s.conn.send(frame{Type: frameCancel, ID: id})
		grace := time.NewTimer(p.cancelGrace)
		defer grace.Stop()
		select {
		case <-ch:
			p.release(s)
		case <-s.deadCh:
			unregister()
		case <-grace.C:
			unregister()
			p.retire(s)
		}
		return nil, ctx.Err(), false
	}
}

// decodeResultFrame maps a worker's result frame back into the engine's
// error vocabulary and — for successes — decodes the outcome as the
// spec kind's type and re-verifies its canonical digest against the
// worker's.
func decodeResultFrame(ctx context.Context, kind string, f frame) (*jobspec.Result, error, bool) {
	switch f.ErrKind {
	case "":
		r, err := decodeResult(kind, f.Outcome, f.Digest)
		return r, err, false
	case errKindCanceled:
		if err := ctx.Err(); err != nil {
			return nil, err, false
		}
		// The worker canceled on its own (its process context died) —
		// not this coordinator's doing, so surface it as a remote error.
		return nil, &RemoteError{Kind: f.ErrKind, Msg: f.ErrMsg}, false
	default:
		return nil, &RemoteError{Kind: f.ErrKind, Msg: f.ErrMsg, Stack: f.Stack}, false
	}
}

// Options configures one Pool.Run sweep.
type Options struct {
	// Job carries the engine's per-job hardening knobs — timeout,
	// retries, backoff, keep-going — applied by engine.MapTimedOpts
	// around Submit exactly as around an in-process job function.
	Job engine.Options
	// Probe receives the engine's pool telemetry (job latency, worker
	// gauge, utilization), same streams as the in-process path.
	Probe obs.Probe
}

// Run executes every spec across the pool's shards and returns timed
// results in spec order. All engine contracts hold by construction —
// Run IS engine.MapTimedOpts with Submit as the job function: results
// merge order-preserving by index, the lowest-indexed failure wins under
// fail-fast, KeepGoing aggregates JobError/PanicError in index order,
// Options.Job.Timeout/Retries bound each job, and canceling ctx tears
// the sweep down (in-flight jobs get cancel frames; exec-mode workers
// die with the context).
func (p *Pool) Run(ctx context.Context, specs []jobspec.Spec, opts Options) ([]engine.Result[*jobspec.Result], error) {
	return engine.MapTimedOpts(ctx, p.Shards(), len(specs), opts.Probe, opts.Job,
		func(ctx context.Context, i int) (*jobspec.Result, error) {
			return p.Submit(ctx, specs[i])
		})
}

// Close tears the pool down: shutdown frames to live workers, streams
// closed, worker processes reaped. Idempotent.
func (p *Pool) Close() {
	p.closeOnce.Do(func() {
		for _, s := range p.shards {
			s.mu.Lock()
			dead := s.dead
			s.mu.Unlock()
			if !dead {
				_ = s.conn.send(frame{Type: frameShutdown})
			}
			s.conn.close()
		}
		for _, s := range p.shards {
			if s.reap != nil {
				s.reap()
			}
		}
	})
}
