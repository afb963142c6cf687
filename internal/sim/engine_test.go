package sim

import (
	"errors"
	"math"
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

func TestRunUntil(t *testing.T) {
	e := New()
	fired := record(e, "evt")
	for _, at := range []int{1, 2, 3, 10} {
		if err := e.AtKeyed(float64(at), "evt", at, "evt"); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.RunUntil(5, 0); err != nil {
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

func TestRunUntilGuard(t *testing.T) {
	e := New()
	bindLoop(e, 0.0001)
	if err := e.AtKeyed(0, "loop", 0, "loop"); err != nil {
		t.Fatal(err)
	}
	if err := e.RunUntil(1, 50); err == nil {
		t.Error("runaway loop not caught before deadline")
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
