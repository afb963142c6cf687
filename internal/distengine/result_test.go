package distengine

import (
	"context"
	"testing"

	"github.com/reprolab/wrsn-csa/internal/jobspec"
)

// TestResultWireRoundTrip carries real results through the wire helpers:
// every golden flavor plus a legit world with no key nodes runs
// in-process, is encoded as a worker encodes it and decoded as the
// coordinator decodes it, and must come back with the library digest.
// The last row sends the keyless spec through a real exec-pool worker.
// The keyless world is the regression case: its Outcome.KeyNodes is an
// empty, non-nil slice, which a decoder that turns empty slices into nil
// (as gob did) reports as a wire-integrity failure.
func TestResultWireRoundTrip(t *testing.T) {
	ctx := context.Background()
	keyless := jobspec.Default(11, 200)
	libraryDigest := func(t *testing.T, spec jobspec.Spec) (*jobspec.Result, string) {
		t.Helper()
		res, err := jobspec.Run(ctx, spec, nil)
		if err != nil {
			t.Fatal(err)
		}
		d, err := res.Digest()
		if err != nil {
			t.Fatal(err)
		}
		return res, d
	}

	const keylessName = "legit-keyless/seed11"
	for _, c := range append(distCases(), distCase{keylessName, keyless}) {
		t.Run(c.name, func(t *testing.T) {
			res, want := libraryDigest(t, c.spec)
			if c.name == keylessName && (res.Outcome.KeyNodes == nil || len(res.Outcome.KeyNodes) != 0) {
				t.Fatalf("KeyNodes = %#v: the spec no longer yields an empty, non-nil slice", res.Outcome.KeyNodes)
			}
			payload, dg, err := encodeResult(res)
			if err != nil {
				t.Fatal(err)
			}
			if dg != want {
				t.Fatalf("wire digest %s != library digest %s", dg, want)
			}
			got, err := decodeResult(c.spec.Kind, payload, dg)
			if err != nil {
				t.Fatal(err)
			}
			if d, _ := got.Digest(); d != want {
				t.Errorf("decoded digest %s != library digest %s", d, want)
			}
		})
	}

	t.Run("exec-pool/"+keylessName, func(t *testing.T) {
		_, want := libraryDigest(t, keyless)
		pctx, cancel := context.WithCancel(ctx)
		defer cancel()
		pool := newExecTestPool(t, pctx, 1, 0)
		res, err := pool.Submit(ctx, keyless)
		if err != nil {
			t.Fatal(err)
		}
		if d, _ := res.Digest(); d != want {
			t.Errorf("exec-pool digest %s != library digest %s", d, want)
		}
	})
}
