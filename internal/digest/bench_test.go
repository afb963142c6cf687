package digest_test

import (
	"context"
	"testing"

	"github.com/reprolab/wrsn-csa/internal/campaign"
	"github.com/reprolab/wrsn-csa/internal/digest"
	"github.com/reprolab/wrsn-csa/internal/jobspec"
	"github.com/reprolab/wrsn-csa/internal/mc"
	"github.com/reprolab/wrsn-csa/internal/snapshot"
	"github.com/reprolab/wrsn-csa/internal/trace"
)

// benchOutcome is one legit n=200 outcome, the size of a typical result
// on the worker wire.
func benchOutcome(b *testing.B) *campaign.Outcome {
	b.Helper()
	res, err := jobspec.Run(context.Background(), jobspec.Default(11, 200), nil)
	if err != nil {
		b.Fatal(err)
	}
	return res.Outcome
}

func BenchmarkCanonical(b *testing.B) {
	o := benchOutcome(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := digest.Canonical(o); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDecode prices the two decodes a sharded job pays on the
// worker wire: the worker decodes the job's n=200 barrier snapshot, and
// the coordinator decodes the legit n=200 outcome.
func BenchmarkDecode(b *testing.B) {
	outcome, err := digest.Canonical(benchOutcome(b))
	if err != nil {
		b.Fatal(err)
	}
	snap, err := snapshot.Build(trace.DefaultScenario(11, 200), mc.DefaultParams())
	if err != nil {
		b.Fatal(err)
	}
	snapBytes, err := snap.Encode()
	if err != nil {
		b.Fatal(err)
	}
	for _, row := range []struct {
		name   string
		enc    []byte
		decode func([]byte) error
	}{
		{"outcome", outcome, func(enc []byte) error { return digest.Decode(enc, new(campaign.Outcome)) }},
		{"snapshot", snapBytes, func(enc []byte) error { _, err := snapshot.Decode(enc); return err }},
	} {
		b.Run(row.name, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(row.enc)))
			for i := 0; i < b.N; i++ {
				if err := row.decode(row.enc); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
