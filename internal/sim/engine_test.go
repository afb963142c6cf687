package sim

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"testing"
)

// record binds kind to a handler that appends each event's argument to
// the returned log.
func record(e *Engine, kind string) *[]int {
	var log []int
	e.Bind(kind, func(_ *Engine, arg int) { log = append(log, arg) })
	return &log
}

func TestEventOrdering(t *testing.T) {
	e := New()
	order := record(e, "evt")
	for _, at := range []int{3, 1, 2} {
		if err := e.AtKeyed(float64(at), "evt", at, "evt"); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Run(0); err != nil {
		t.Fatal(err)
	}
	if got := *order; len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Errorf("order = %v", got)
	}
	if e.Now() != 3 {
		t.Errorf("clock = %v, want 3", e.Now())
	}
}

func TestTieBreakBySchedulingOrder(t *testing.T) {
	e := New()
	order := record(e, "tie")
	for i := 0; i < 5; i++ {
		if err := e.AtKeyed(7, "tie", i, "tie"); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Run(0); err != nil {
		t.Fatal(err)
	}
	for i, v := range *order {
		if v != i {
			t.Fatalf("ties executed out of scheduling order: %v", *order)
		}
	}
}

func TestPastSchedulingRejected(t *testing.T) {
	e := New()
	record(e, "x")
	if err := e.AtKeyed(5, "x", 0, "x"); err != nil {
		t.Fatal(err)
	}
	e.Step()
	if err := e.AtKeyed(4, "x", 0, "late"); !errors.Is(err, ErrPast) {
		t.Errorf("err = %v, want ErrPast", err)
	}
	// Scheduling exactly at now is allowed.
	if err := e.AtKeyed(e.Now(), "x", 0, "now"); err != nil {
		t.Errorf("at-now rejected: %v", err)
	}
	if err := e.AtKeyed(math.NaN(), "x", 0, "nan"); err == nil {
		t.Error("NaN timestamp accepted")
	}
	if err := e.AtKeyed(6, "unbound", 0, "unbound"); err == nil {
		t.Error("event of an unbound kind accepted")
	}
}

func TestHandlersScheduleMore(t *testing.T) {
	e := New()
	count := 0
	e.Bind("tick", func(en *Engine, _ int) {
		count++
		if count < 10 {
			if err := en.AfterKeyed(1, "tick", 0, "tick"); err != nil {
				t.Fatal(err)
			}
		}
	})
	if err := e.AtKeyed(0, "tick", 0, "tick"); err != nil {
		t.Fatal(err)
	}
	if err := e.Run(0); err != nil {
		t.Fatal(err)
	}
	if count != 10 || e.Now() != 9 {
		t.Errorf("count=%d now=%v", count, e.Now())
	}
}

// nopBarrier is a checkpoint barrier that never stops the pump.
func nopBarrier(string) error { return nil }

// TestRunUntil runs with a nil barrier and with one that never stops
// the pump: both execute the same events and leave the same clock.
func TestRunUntil(t *testing.T) {
	for _, after := range []func(string) error{nil, nopBarrier} {
		e := New()
		fired := record(e, "evt")
		for _, at := range []int{1, 2, 3, 10} {
			if err := e.AtKeyed(float64(at), "evt", at, "evt"); err != nil {
				t.Fatal(err)
			}
		}
		if err := e.RunUntil(5, 0, after); err != nil {
			t.Fatal(err)
		}
		if len(*fired) != 3 {
			t.Errorf("fired %v, want events ≤5 only", *fired)
		}
		if e.Now() != 5 {
			t.Errorf("clock = %v, want 5 (advanced to deadline)", e.Now())
		}
		if e.Pending() != 1 {
			t.Errorf("pending = %d, want 1", e.Pending())
		}
		if pt := e.PeekTime(); pt != 10 {
			t.Errorf("peek = %v", pt)
		}
	}
}

// TestRunUntilBarrierSeesEachEvent: the barrier is called once per
// executed event, after its handler, with that event's kind, in
// execution order.
func TestRunUntilBarrierSeesEachEvent(t *testing.T) {
	e := New()
	var log []string
	for _, kind := range []string{"a", "b"} {
		e.Bind(kind, func(en *Engine, arg int) { log = append(log, fmt.Sprintf("run %s%d", kind, arg)) })
	}
	for i, kind := range []string{"b", "a", "b", "a", "b"} {
		if err := e.AtKeyed(float64(5-i), kind, i, kind); err != nil {
			t.Fatal(err)
		}
	}
	err := e.RunUntil(3.5, 0, func(kind string) error {
		log = append(log, "after "+kind)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"run b4", "after b", "run a3", "after a", "run b2", "after b"}
	if !slices.Equal(log, want) {
		t.Errorf("log = %q, want %q", log, want)
	}
}

// TestRunUntilBarrierErrorStops: an error from the barrier stops the
// pump at the event it followed. Later events stay queued and the clock
// stays at the last executed event instead of moving to the deadline.
func TestRunUntilBarrierErrorStops(t *testing.T) {
	e := New()
	fired := record(e, "evt")
	for _, at := range []int{1, 2, 3, 4} {
		if err := e.AtKeyed(float64(at), "evt", at, "evt"); err != nil {
			t.Fatal(err)
		}
	}
	stop := errors.New("stop")
	calls := 0
	err := e.RunUntil(10, 0, func(string) error {
		if calls++; calls == 2 {
			return stop
		}
		return nil
	})
	if !errors.Is(err, stop) {
		t.Fatalf("err = %v, want the barrier's error", err)
	}
	if !slices.Equal(*fired, []int{1, 2}) || calls != 2 {
		t.Errorf("fired %v with %d barrier calls, want [1 2] and 2", *fired, calls)
	}
	if e.Now() != 2 {
		t.Errorf("clock = %v, want 2 (the last executed event)", e.Now())
	}
	if e.Pending() != 2 || e.PeekTime() != 3 {
		t.Errorf("pending = %d, peek = %v; want 2 events from t=3", e.Pending(), e.PeekTime())
	}
}

// bindLoop binds a handler that reschedules itself dt after every run.
func bindLoop(e *Engine, dt float64) {
	e.Bind("loop", func(en *Engine, _ int) { _ = en.AfterKeyed(dt, "loop", 0, "loop") })
}

func TestRunawayGuard(t *testing.T) {
	e := New()
	bindLoop(e, 0.001)
	if err := e.AtKeyed(0, "loop", 0, "loop"); err != nil {
		t.Fatal(err)
	}
	if err := e.Run(100); err == nil {
		t.Error("runaway loop not caught")
	}
	if err := New().Run(100); err != nil {
		t.Errorf("empty run errored: %v", err)
	}
}

// TestRunUntilGuard: maxEvents stops a runaway loop before the
// deadline, with or without a barrier.
func TestRunUntilGuard(t *testing.T) {
	for _, after := range []func(string) error{nil, nopBarrier} {
		e := New()
		bindLoop(e, 0.0001)
		if err := e.AtKeyed(0, "loop", 0, "loop"); err != nil {
			t.Fatal(err)
		}
		if err := e.RunUntil(1, 50, after); err == nil {
			t.Error("runaway loop not caught before deadline")
		}
		if e.Processed() != 50 {
			t.Errorf("processed = %d, want the guard's 50", e.Processed())
		}
	}
}

func TestProcessedCount(t *testing.T) {
	e := New()
	record(e, "e")
	for i := 0; i < 4; i++ {
		if err := e.AfterKeyed(float64(i), "e", i, "e"); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Run(0); err != nil {
		t.Fatal(err)
	}
	if e.Processed() != 4 {
		t.Errorf("processed = %d", e.Processed())
	}
}

func TestClockNeverRewinds(t *testing.T) {
	e := New()
	last := -1.0
	e.Bind("e", func(en *Engine, _ int) {
		if en.Now() < last {
			t.Fatalf("clock rewound: %v after %v", en.Now(), last)
		}
		last = en.Now()
	})
	for i := 100; i > 0; i-- {
		if err := e.AtKeyed(float64(i%17), "e", i, "e"); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Run(0); err != nil {
		t.Fatal(err)
	}
}
