package jobspec

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"github.com/reprolab/wrsn-csa/internal/campaign"
	"github.com/reprolab/wrsn-csa/internal/defense"
	"github.com/reprolab/wrsn-csa/internal/faults"
	"github.com/reprolab/wrsn-csa/internal/mc"
	"github.com/reprolab/wrsn-csa/internal/trace"
	"github.com/reprolab/wrsn-csa/internal/wpt"
)

// fullSpec exercises every serializable field at a non-zero value.
func fullSpec() Spec {
	sc := trace.DefaultScenario(7, 90)
	sc.Deploy.Pattern = trace.DeployClustered
	sc.CommRange = 55
	sc.Policy = 2
	return Spec{
		Kind:     KindAttack,
		Scenario: sc,
		Campaign: Campaign{
			Seed:             7,
			HorizonSec:       5 * 86400,
			RequestFrac:      0.25,
			CooldownSec:      3600,
			PollSec:          600,
			Solver:           campaign.SolverGreedyNearest,
			Scheduler:        "EDF",
			MaxCovers:        9,
			InstanceBudgetJ:  1e6,
			Band:             wpt.DefaultSpoofBand(),
			NoFill:           true,
			SingleEmitter:    true,
			Progressive:      true,
			SampleEverySec:   7200,
			AuditEverySec:    43200,
			MinAuditSessions: 5,
			PendingGraceSec:  86400,
			BenignFailRate:   0.01,
			Defense:          defense.Config{VerifyProb: 0.4, WitnessDutyCycle: 0.2},
		},
		Faults: &faults.Spec{Seed: 7, HorizonSec: 5 * 86400, NodeFailures: 3, RequestLossProb: 0.1},
	}
}

// TestRoundTripExact is the satellite contract: encode → decode →
// deep-equal, with no field lost or mutated.
func TestRoundTripExact(t *testing.T) {
	for name, spec := range map[string]Spec{
		"full":    fullSpec(),
		"default": Default(42, 120),
		"fleet": func() Spec {
			s := Default(11, 150)
			s.Kind = KindFleet
			s.Chargers = 3
			return s
		}(),
	} {
		t.Run(name, func(t *testing.T) {
			b, err := spec.Encode()
			if err != nil {
				t.Fatal(err)
			}
			back, err := Decode(b)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(spec, back) {
				t.Errorf("round trip drifted:\n in: %+v\nout: %+v\nwire: %s", spec, back, b)
			}
		})
	}
}

func TestValidate(t *testing.T) {
	cases := []struct {
		name    string
		mutate  func(*Spec)
		wantErr string
	}{
		{"ok", nil, ""},
		{"unknown kind", func(s *Spec) { s.Kind = "chaos" }, "unknown kind"},
		{"fleet needs chargers", func(s *Spec) { s.Kind = KindFleet; s.Chargers = 0 }, "chargers"},
		{"single-charger with fleet size", func(s *Spec) { s.Chargers = 2 }, "single-charger"},
		{"no nodes", func(s *Spec) { s.Scenario.Deploy.N = 0 }, "node count"},
		{"unknown solver", func(s *Spec) { s.Campaign.Solver = "Oracle" }, "solver"},
		{"unknown scheduler", func(s *Spec) { s.Campaign.Scheduler = "LIFO" }, "scheduler"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := Default(42, 60)
			if tc.mutate != nil {
				tc.mutate(&s)
			}
			err := s.Validate()
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("unexpected error: %v", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error %v, want containing %q", err, tc.wantErr)
			}
		})
	}
}

// A typo in a hand-written job file must fail the decode, not run
// silently at the default it failed to override; so must anything after
// the spec.
func TestDecodeRejectsUnknownFields(t *testing.T) {
	if _, err := Decode([]byte(`{"kind":"legit","campaign":{"horizon_sec":60}}`)); err != nil {
		t.Fatalf("well-formed spec rejected: %v", err)
	}
	for name, in := range map[string]string{
		"typo":     `{"kind":"legit","campaign":{"horizon_secs":60}}`,
		"top":      `{"kind":"legit","chargerz":2}`,
		"trailing": `{"kind":"legit"} {"kind":"attack"}`,
	} {
		if _, err := Decode([]byte(in)); err == nil {
			t.Errorf("%s: decoded %s", name, in)
		}
	}
}

// TestRunMatchesLibraryPath pins the core equivalence: running a Spec
// through jobspec.Run must produce the byte-identical Outcome digest of
// hand-wiring the library the way the CLIs used to.
func TestRunMatchesLibraryPath(t *testing.T) {
	spec := Default(42, 80)
	spec.Kind = KindAttack
	spec.Campaign.HorizonSec = 3 * 86400

	res, err := Run(context.Background(), spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := res.Digest()
	if err != nil {
		t.Fatal(err)
	}

	nw, _, err := spec.Scenario.Build()
	if err != nil {
		t.Fatal(err)
	}
	ch := mc.New(nw.Sink(), mc.DefaultParams())
	o, err := campaign.RunAttack(context.Background(), nw, ch, campaign.Config{Seed: 42, HorizonSec: 3 * 86400})
	if err != nil {
		t.Fatal(err)
	}
	want := (&Result{Outcome: o}).mustDigest(t)
	if got != want {
		t.Errorf("jobspec.Run digest %s != library digest %s", got, want)
	}
}

// TestRunFaultSpecReusable proves a Spec with faults is reusable even
// though compiled plans are single-use: two runs, identical digests.
func TestRunFaultSpecReusable(t *testing.T) {
	spec := Default(42, 70)
	spec.Kind = KindAttack
	spec.Campaign.HorizonSec = 2 * 86400
	spec.Faults = &faults.Spec{Seed: 42, HorizonSec: 2 * 86400, NodeFailures: 3, RequestLossProb: 0.2}

	var digests [2]string
	for i := range digests {
		res, err := Run(context.Background(), spec, nil)
		if err != nil {
			t.Fatal(err)
		}
		digests[i] = res.mustDigest(t)
	}
	if digests[0] != digests[1] {
		t.Errorf("fault spec not reusable: %s vs %s", digests[0], digests[1])
	}
}

func TestRunFleet(t *testing.T) {
	spec := Default(11, 90)
	spec.Kind = KindFleet
	spec.Chargers = 2
	spec.Campaign.HorizonSec = 2 * 86400
	res, err := Run(context.Background(), spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Fleet == nil || res.Outcome != nil {
		t.Fatalf("fleet run returned %+v, want fleet-only result", res)
	}
	if res.Fleet.Chargers != 2 {
		t.Errorf("fleet size %d, want 2", res.Fleet.Chargers)
	}
	if _, err := res.CanonicalJSON(); err != nil {
		t.Errorf("fleet outcome not canonically encodable: %v", err)
	}
}

func (r *Result) mustDigest(t *testing.T) string {
	t.Helper()
	d, err := r.Digest()
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// FuzzDecode holds the job-file decoder to two contracts: Decode and
// Validate never panic, whatever the bytes, and a spec Decode accepts
// survives Encode → Decode unchanged.
func FuzzDecode(f *testing.F) {
	fleet := Default(11, 150)
	fleet.Kind, fleet.Chargers = KindFleet, 2
	attack := Default(7, 90)
	attack.Kind = KindAttack
	for _, s := range []Spec{Default(42, 120), attack, fleet, fullSpec()} {
		b, err := s.Encode()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	// Empty base64 fields once decoded to empty, non-nil slices, which
	// Encode omits and the next Decode reads back as nil.
	f.Add([]byte(`{"kind":"legit","snapshot":"","resume_from":""}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := Decode(data)
		if err != nil {
			return
		}
		_ = s.Validate()
		b, err := s.Encode()
		if err != nil {
			t.Fatalf("decoded spec does not encode: %v\nspec: %+v", err, s)
		}
		back, err := Decode(b)
		if err != nil {
			t.Fatalf("encoded spec does not decode: %v\nwire: %s", err, b)
		}
		if !reflect.DeepEqual(s, back) {
			t.Fatalf("round trip drifted:\n in: %+v\nout: %+v\nwire: %s", s, back, b)
		}
	})
}
