// Package sim is a minimal discrete-event simulation engine: a virtual
// clock and a priority queue of timestamped events with deterministic
// tie-breaking, so runs replay identically under a fixed seed.
package sim

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"slices"
	"time"

	"github.com/reprolab/wrsn-csa/internal/obs"
)

// ErrPast is returned when an event is scheduled before the current clock.
var ErrPast = errors.New("sim: event scheduled in the past")

// KeyedHandler is an event callback. It runs with the engine clock set to
// the event's timestamp and may schedule further events. An event names
// its handler by kind (resolved through the engine's registry when the
// event pops) and carries an integer argument, never a closure, so every
// queued event serializes as (t, seq, kind, arg, name) into a live
// checkpoint, and late binding means a restored engine re-binds its
// handlers once and the restored queue finds them.
type KeyedHandler func(e *Engine, arg int)

// Engine drives a single-threaded discrete-event simulation. It is not
// safe for concurrent use; all handlers run on the caller's goroutine.
type Engine struct {
	now   float64
	queue eventHeap
	seq   uint64
	// processed counts events executed, for runaway-simulation guards.
	processed uint64
	// probe receives engine telemetry (events processed, queue depth,
	// per-handler timing); nil means disabled. Telemetry never feeds back
	// into scheduling, so instrumented runs replay identically.
	probe obs.Probe
	// handlers is the keyed-event registry: kind → handler. Binding is
	// late — the handler is looked up when the event pops, so a restored
	// queue executes against freshly bound handlers.
	handlers map[string]KeyedHandler
}

// New returns an engine with the clock at zero.
func New() *Engine { return &Engine{} }

// Instrument attaches a telemetry probe: every executed event counts
// into "sim.events", the post-pop queue depth lands in the
// "sim.queue_depth" gauge, and each handler's wall-clock cost is
// observed into the "sim.handler_sec.<name>" histogram. A nil probe
// disables instrumentation. Timing uses the wall clock, so it is
// observability only — never part of deterministic outputs.
func (e *Engine) Instrument(p obs.Probe) {
	e.probe = obs.Or(p)
	if !e.probe.Enabled() {
		e.probe = nil
	}
}

// Now returns the current virtual time in seconds.
func (e *Engine) Now() float64 { return e.now }

// Processed returns the number of events executed so far.
func (e *Engine) Processed() uint64 { return e.processed }

// Grow pre-allocates queue capacity for at least n additional events, so
// a run with a known event population reaches steady state without any
// queue reallocation.
func (e *Engine) Grow(n int) {
	e.queue = slices.Grow(e.queue, n)
}

// Bind registers the handler for a keyed-event kind. Rebinding a kind
// replaces the previous handler; queued events of that kind execute the
// new one (late binding). There is no unbind: a bound kind stays valid
// for the life of the engine, so queued keyed events can always execute.
func (e *Engine) Bind(kind string, fn KeyedHandler) {
	if kind == "" || fn == nil {
		panic("sim: Bind requires a non-empty kind and a non-nil handler")
	}
	if e.handlers == nil {
		e.handlers = make(map[string]KeyedHandler)
	}
	e.handlers[kind] = fn
}

// AtKeyed schedules a keyed event at absolute time t: kind selects the
// bound handler, arg is its integer payload, and name is the display
// label probes and PendingEvents report. The kind must already be bound.
// Scheduling at the current time is allowed (the event runs after the
// current handler returns).
func (e *Engine) AtKeyed(t float64, kind string, arg int, name string) error {
	if _, ok := e.handlers[kind]; !ok {
		return fmt.Errorf("sim: AtKeyed: kind %q not bound (event %q)", kind, name)
	}
	if t < e.now {
		return fmt.Errorf("%w: t=%v now=%v (%s)", ErrPast, t, e.now, name)
	}
	if math.IsNaN(t) {
		return fmt.Errorf("sim: NaN timestamp for event %q", name)
	}
	e.seq++
	e.queue.push(PendingEvent{T: t, Seq: e.seq, Name: name, Kind: kind, Arg: arg})
	return nil
}

// AfterKeyed schedules a keyed event dt seconds from now.
func (e *Engine) AfterKeyed(dt float64, kind string, arg int, name string) error {
	return e.AtKeyed(e.now+dt, kind, arg, name)
}

// HasPendingKind reports whether any queued event has the given kind.
// The scan is linear; campaign queues stay small (one step-chain event,
// a handful of fault and fleet events).
func (e *Engine) HasPendingKind(kind string) bool {
	for i := range e.queue {
		if e.queue[i].Kind == kind {
			return true
		}
	}
	return false
}

// ResumeAt sets the clock of an empty engine to a captured time, the
// first half of restoring a snapshot (RestorePending is the second).
func (e *Engine) ResumeAt(t float64) error {
	if len(e.queue) != 0 {
		return fmt.Errorf("sim: ResumeAt requires an empty queue, have %d pending", len(e.queue))
	}
	if math.IsNaN(t) || t < e.now {
		return fmt.Errorf("sim: ResumeAt(%v) before current clock %v", t, e.now)
	}
	e.now = t
	return nil
}

// RestorePending re-schedules a captured pending queue. Events are
// inserted in (T, Seq) order with fresh sequence numbers, so relative
// tie-break order — and therefore execution order — is preserved exactly.
// Every event's kind must already be bound.
func (e *Engine) RestorePending(evs []PendingEvent) error {
	sorted := append([]PendingEvent(nil), evs...)
	slices.SortFunc(sorted, comparePending)
	for _, ev := range sorted {
		if err := e.AtKeyed(ev.T, ev.Kind, ev.Arg, ev.Name); err != nil {
			return fmt.Errorf("sim: restore: %w", err)
		}
	}
	return nil
}

// Pending returns the number of queued events.
func (e *Engine) Pending() int { return len(e.queue) }

// PeekTime returns the timestamp of the next event, or +Inf when the queue
// is empty.
func (e *Engine) PeekTime() float64 {
	if len(e.queue) == 0 {
		return math.Inf(1)
	}
	return e.queue[0].T
}

// PendingEvent is one queued keyed event: its timestamp, scheduling
// sequence number (which breaks timestamp ties in scheduling order,
// making execution deterministic), display name, registry kind and
// integer argument. The queue stores these values themselves, so a
// snapshot's pending list is a sorted copy of the queue, and
// RestorePending re-schedules each against the same kind on a freshly
// bound engine.
type PendingEvent struct {
	T    float64
	Seq  uint64
	Name string
	Kind string
	Arg  int
}

// comparePending orders events by (T, Seq) — execution order.
func comparePending(a, b PendingEvent) int {
	if c := cmp.Compare(a.T, b.T); c != 0 {
		return c
	}
	return cmp.Compare(a.Seq, b.Seq)
}

// PendingEvents returns a copy of the queued events in execution order
// (by timestamp, then scheduling sequence). The engine is not modified.
func (e *Engine) PendingEvents() []PendingEvent {
	if len(e.queue) == 0 {
		return nil
	}
	evs := slices.Clone(e.queue)
	slices.SortFunc(evs, comparePending)
	return evs
}

// Step executes the next event and returns false when the queue is empty.
func (e *Engine) Step() bool {
	if len(e.queue) == 0 {
		return false
	}
	ev := e.queue.pop()
	e.now = ev.T
	e.processed++
	// AtKeyed guarantees the kind is bound, and Bind never removes one.
	fn := e.handlers[ev.Kind]
	if p := e.probe; p != nil {
		start := time.Now()
		fn(e, ev.Arg)
		p.Observe("sim.handler_sec."+ev.Name, time.Since(start).Seconds())
		p.Add("sim.events", 1)
		p.Set("sim.queue_depth", float64(len(e.queue)))
		return true
	}
	fn(e, ev.Arg)
	return true
}

// RunUntil executes events until the clock would pass deadline or the
// queue empties: after the call, Now() ≤ deadline and no executed event
// had t > deadline, and events beyond the deadline remain queued.
// maxEvents guards against runaway self-scheduling loops; 0 means no
// guard.
//
// after, when non-nil, is the checkpoint barrier: it is called with each
// executed event's kind, once the handler has returned, while the clock
// sits at the event's timestamp and no handler is mid-flight. A non-nil
// error from it stops the pump at once and is returned; queued events
// stay queued and the clock is not moved on to the deadline. An after
// that returns nil changes none of the events executed, so a barrier
// never moves a run.
func (e *Engine) RunUntil(deadline float64, maxEvents uint64, after func(kind string) error) error {
	start := e.processed
	for len(e.queue) > 0 && e.queue[0].T <= deadline {
		if maxEvents > 0 && e.processed-start >= maxEvents {
			return fmt.Errorf("sim: exceeded %d events before deadline %v (now %v)", maxEvents, deadline, e.now)
		}
		kind := e.queue[0].Kind
		e.Step()
		if after != nil {
			if err := after(kind); err != nil {
				return err
			}
		}
	}
	if e.now < deadline {
		e.now = deadline
	}
	return nil
}

// Run executes events until the queue empties. maxEvents guards against
// runaway loops; 0 means no guard.
func (e *Engine) Run(maxEvents uint64) error {
	start := e.processed
	for e.Step() {
		if maxEvents > 0 && e.processed-start >= maxEvents {
			return fmt.Errorf("sim: exceeded %d events (now %v)", maxEvents, e.now)
		}
	}
	return nil
}

// eventHeap is a binary min-heap of events ordered by timestamp, then
// scheduling sequence. Events are stored by value and sifted manually,
// so the queue performs zero heap allocations at steady state (push
// reuses capacity freed by earlier pops). Because (t, seq) is a total
// order — seq is unique — the pop sequence is identical to any other
// correct heap over the same comparator, including the previous
// container/heap implementation.
type eventHeap []PendingEvent

// less reports whether the event at i sorts before the event at j.
func (h eventHeap) less(i, j int) bool {
	if h[i].T != h[j].T {
		return h[i].T < h[j].T
	}
	return h[i].Seq < h[j].Seq
}

// push inserts an event maintaining heap order.
func (h *eventHeap) push(ev PendingEvent) {
	*h = append(*h, ev)
	h.siftUp(len(*h) - 1)
}

// pop removes and returns the earliest event.
func (h *eventHeap) pop() PendingEvent {
	old := *h
	n := len(old) - 1
	old[0], old[n] = old[n], old[0]
	ev := old[n]
	// Zero the vacated slot so the queue does not pin its strings past
	// execution.
	old[n] = PendingEvent{}
	*h = old[:n]
	h.siftDown(0)
	return ev
}

// siftUp restores heap order after appending at index i.
func (h eventHeap) siftUp(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(i, parent) {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
}

// siftDown restores heap order after replacing the value at index i.
func (h eventHeap) siftDown(i int) {
	n := len(h)
	for {
		left := 2*i + 1
		if left >= n {
			return
		}
		smallest := left
		if right := left + 1; right < n && h.less(right, left) {
			smallest = right
		}
		if !h.less(smallest, i) {
			return
		}
		h[i], h[smallest] = h[smallest], h[i]
		i = smallest
	}
}
