package sim

import (
	"testing"
)

// TestSteadyStateAllocFree proves the event loop performs zero heap
// allocations once the queue has reached its working capacity: a
// self-rescheduling handler (the shape of the campaign world's step
// chain) pushes and pops through a pre-grown value-typed heap without
// boxing events or reallocating the queue.
func TestSteadyStateAllocFree(t *testing.T) {
	e := New()
	e.Grow(4)
	e.Bind("tick", func(en *Engine, _ int) { _ = en.AfterKeyed(1, "tick", 0, "tick") })
	if err := e.AtKeyed(0, "tick", 0, "tick"); err != nil {
		t.Fatal(err)
	}
	// Warm up so the queue is at steady-state occupancy.
	for i := 0; i < 8; i++ {
		e.Step()
	}
	allocs := testing.AllocsPerRun(1000, func() {
		e.Step()
	})
	if allocs != 0 {
		t.Fatalf("steady-state Step allocates %v times per event, want 0", allocs)
	}
}

// TestMixedLoadAllocFree exercises a steady state with several handlers
// interleaved at different periods, matching the real campaign mix
// (poll, sample, audit, depletion watch).
func TestMixedLoadAllocFree(t *testing.T) {
	e := New()
	e.Grow(16)
	periods := []float64{1, 2.5, 7, 30}
	names := []string{"poll", "sample", "audit", "watch"}
	e.Bind("periodic", func(en *Engine, i int) { _ = en.AfterKeyed(periods[i], "periodic", i, names[i]) })
	for i, name := range names {
		if err := e.AtKeyed(0, "periodic", i, name); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 64; i++ {
		e.Step()
	}
	allocs := testing.AllocsPerRun(1000, func() {
		e.Step()
	})
	if allocs != 0 {
		t.Fatalf("mixed steady-state Step allocates %v times per event, want 0", allocs)
	}
}

// TestGrowPreallocates verifies Grow reserves capacity so the first
// burst of scheduling does not reallocate mid-run.
func TestGrowPreallocates(t *testing.T) {
	e := New()
	e.Grow(64)
	e.Bind("burst", func(*Engine, int) {})
	allocs := testing.AllocsPerRun(10, func() {
		for i := 0; i < 64; i++ {
			if err := e.AfterKeyed(float64(i), "burst", i, "burst"); err != nil {
				t.Fatal(err)
			}
		}
		for e.Step() {
		}
	})
	if allocs != 0 {
		t.Fatalf("pre-grown schedule burst allocates %v times per run, want 0", allocs)
	}
}
