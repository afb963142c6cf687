package digest_test

import (
	"context"
	"testing"

	"github.com/reprolab/wrsn-csa/internal/campaign"
	"github.com/reprolab/wrsn-csa/internal/digest"
	"github.com/reprolab/wrsn-csa/internal/jobspec"
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

func BenchmarkDecode(b *testing.B) {
	enc, err := digest.Canonical(benchOutcome(b))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.SetBytes(int64(len(enc)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := digest.Decode(enc, new(campaign.Outcome)); err != nil {
			b.Fatal(err)
		}
	}
}
