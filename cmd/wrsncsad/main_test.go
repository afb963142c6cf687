package main

import "testing"

// TestSmokeMode runs the full -smoke self-test (loopback HTTP server,
// mixed job batch, digest verification against the library path, drain)
// exactly as `make verify-daemon` does.
func TestSmokeMode(t *testing.T) {
	if err := run([]string{"-smoke", "-workers", "2", "-queue", "8"}); err != nil {
		t.Fatal(err)
	}
}

func TestBadFlags(t *testing.T) {
	if err := run([]string{"-no-such-flag"}); err == nil {
		t.Fatal("unknown flag accepted")
	}
}

// TestMaxResultsDefault pins a finite retention bound by default, so a
// long-lived daemon does not keep every finished job it ever ran, while
// -max-results 0 still asks for the unbounded library behavior.
func TestMaxResultsDefault(t *testing.T) {
	cfg, err := parseFlags(nil)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.opts.MaxResults <= 0 {
		t.Fatalf("default -max-results = %d, want a positive bound", cfg.opts.MaxResults)
	}
	if cfg, err = parseFlags([]string{"-max-results", "0"}); err != nil || cfg.opts.MaxResults != 0 {
		t.Fatalf("-max-results 0 gave %+v, %v; want unbounded", cfg, err)
	}
}
