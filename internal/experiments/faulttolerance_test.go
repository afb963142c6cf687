package experiments

import (
	"bytes"
	"context"
	"strings"
	"testing"
	"time"
)

// TestFaultToleranceDeterminism: rfig14 builds a fresh fault plan per
// job, so its tables and CSV series must still be byte-identical across
// worker counts for a fixed seed.
func TestFaultToleranceDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("full campaigns; skipped in -short")
	}
	e, err := ByID("rfig14")
	if err != nil {
		t.Fatal(err)
	}
	run := func(workers int) (string, []byte) {
		cfg := NewConfig(WithQuick(true), WithSeeds(1), WithWorkers(workers))
		out, err := Run(context.Background(), e, cfg)
		if err != nil {
			t.Fatal(err)
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
	if !strings.Contains(seqTbl, "injected") {
		t.Errorf("table lacks the fault-ledger columns:\n%s", seqTbl)
	}
}

func TestHardeningOptions(t *testing.T) {
	cfg := NewConfig(WithJobTimeout(3 * time.Minute))
	if cfg.JobTimeout != 3*time.Minute {
		t.Errorf("NewConfig mis-applied hardening options: %+v", cfg)
	}
}
