package digest_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"os"
	"testing"

	"github.com/reprolab/wrsn-csa/internal/campaign"
	"github.com/reprolab/wrsn-csa/internal/digest"
	"github.com/reprolab/wrsn-csa/internal/jobspec"
)

// decodeOutcome decodes data as the outcome type a worker would send for
// a fleet or a single-charger job.
func decodeOutcome(data []byte, fleet bool) (any, error) {
	if fleet {
		v := new(campaign.FleetOutcome)
		return v, digest.Decode(data, v)
	}
	v := new(campaign.Outcome)
	return v, digest.Decode(data, v)
}

// FuzzDecode feeds arbitrary bytes to the strict decoder as an Outcome or
// a FleetOutcome. It must never panic; it must reject with a
// *DecodeError whose offset lies inside the input; and whatever it
// accepts must re-encode to bytes that decode and re-encode identically.
// The seeds are canonical golden outcomes (plus a legit world with no
// key nodes, whose empty slice must survive), each checked to round-trip
// exactly and to carry its pinned digest.
func FuzzDecode(f *testing.F) {
	raw, err := os.ReadFile("../campaign/testdata/outcome_digests.json")
	if err != nil {
		f.Fatal(err)
	}
	var golden map[string]string
	if err := json.Unmarshal(raw, &golden); err != nil {
		f.Fatal(err)
	}
	attack := jobspec.Default(42, 120)
	attack.Kind = jobspec.KindAttack
	fleet := jobspec.Default(42, 150)
	fleet.Kind, fleet.Chargers = jobspec.KindFleet, 2
	for _, c := range []struct {
		golden string
		spec   jobspec.Spec
	}{
		{"legit/seed42", jobspec.Default(42, 120)},
		{"csa/seed42", attack},
		{"fleet2/seed42", fleet},
		{"", jobspec.Default(11, 200)},
	} {
		res, err := jobspec.Run(context.Background(), c.spec, nil)
		if err != nil {
			f.Fatal(err)
		}
		seed, err := res.CanonicalJSON()
		if err != nil {
			f.Fatal(err)
		}
		if want, ok := golden[c.golden]; ok && digest.Hash(seed) != want {
			f.Fatalf("%s: seed digest %s, golden %s", c.golden, digest.Hash(seed), want)
		}
		isFleet := c.spec.Kind == jobspec.KindFleet
		v, err := decodeOutcome(seed, isFleet)
		if err != nil {
			f.Fatalf("%s: decode seed: %v", c.golden, err)
		}
		again, err := digest.Canonical(v)
		if err != nil {
			f.Fatal(err)
		}
		if !bytes.Equal(again, seed) {
			f.Fatalf("%s: seed does not round-trip exactly", c.golden)
		}
		if o, ok := v.(*campaign.Outcome); ok && c.golden == "" && (o.KeyNodes == nil || len(o.KeyNodes) != 0) {
			f.Fatalf("seed 11: KeyNodes decoded as %#v, want empty and non-nil", o.KeyNodes)
		}
		f.Add(seed, isFleet)
	}
	f.Add([]byte(`{}`), false)
	f.Add([]byte(`null`), true)

	f.Fuzz(func(t *testing.T, data []byte, fleet bool) {
		v, err := decodeOutcome(data, fleet)
		if err != nil {
			var de *digest.DecodeError
			if !errors.As(err, &de) || de.Offset < 0 || de.Offset > len(data) {
				t.Fatalf("rejection %v is not a *DecodeError inside the input", err)
			}
			return
		}
		e1, err := digest.Canonical(v)
		if err != nil {
			t.Fatalf("accepted input does not re-encode: %v", err)
		}
		v2, err := decodeOutcome(e1, fleet)
		if err != nil {
			t.Fatalf("re-encoded input does not decode: %v", err)
		}
		e2, err := digest.Canonical(v2)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(e1, e2) {
			t.Fatalf("re-encoding is not stable:\n%s\n%s", e1, e2)
		}
	})
}
