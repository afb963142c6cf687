package jobspec

import (
	"context"
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"github.com/reprolab/wrsn-csa/internal/campaign"
	"github.com/reprolab/wrsn-csa/internal/defense"
	"github.com/reprolab/wrsn-csa/internal/faults"
	"github.com/reprolab/wrsn-csa/internal/geom"
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
		{"sampling below default poll", func(s *Spec) { s.Campaign.SampleEverySec = 1e-3 }, "sample_every_sec"},
		{"sampling below set poll", func(s *Spec) { s.Campaign.PollSec, s.Campaign.SampleEverySec = 7200, 3600 }, "poll_sec 7200"},
		{"sampling at default poll", func(s *Spec) { s.Campaign.SampleEverySec = 900 }, ""},
		{"sampling off", func(s *Spec) { s.Campaign.SampleEverySec = -1 }, ""},
		// Clustered placement draws one center per cluster, and only the
		// first N can ever be used: at 1e9 the centers alone would need
		// about 16 GB before the world is built.
		{"clusters above N", func(s *Spec) { s.Scenario.Deploy.Clusters = 1e9 }, "clusters 1000000000"},
		{"clusters one above N", func(s *Spec) { s.Scenario.Deploy.Clusters = 61 }, "clusters"},
		{"clusters at N", func(s *Spec) { s.Scenario.Deploy.Clusters = 60 }, ""},
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

// TestShardsFieldIgnored pins the decision on the retired world-stepping
// knob: a job file that still carries "shards" decodes, validates and
// runs to the digest of the same job without it, which is also the
// digest the sharded stepper produced, and the field survives Encode →
// Decode.
func TestShardsFieldIgnored(t *testing.T) {
	sc, err := json.Marshal(Default(42, 60).Scenario)
	if err != nil {
		t.Fatal(err)
	}
	job := func(campaign string) []byte {
		return []byte(`{"kind":"legit","scenario":` + string(sc) + `,"campaign":` + campaign + `}`)
	}
	// The digest a 4-shard run of this job had when sharded stepping
	// existed; every shard count produced it.
	const want = "eea55b07f848686b8ede4d3b44e9fb7cc524d49603139f9b9b1b49c4bf28933d"
	for name, b := range map[string][]byte{
		"with":    job(`{"seed":42,"horizon_sec":86400,"shards":4}`),
		"without": job(`{"seed":42,"horizon_sec":86400}`),
	} {
		spec, err := Decode(b)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := spec.Validate(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		res, err := Run(context.Background(), spec, nil)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got := res.mustDigest(t); got != want {
			t.Errorf("%s: digest %s, want %s", name, got, want)
		}
		enc, err := spec.Encode()
		if err != nil {
			t.Fatal(err)
		}
		back, err := Decode(enc)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(spec, back) {
			t.Errorf("%s: round trip drifted:\n in: %+v\nout: %+v", name, spec, back)
		}
		if name == "with" && back.Campaign.Shards != 4 {
			t.Errorf("round trip dropped shards: %d", back.Campaign.Shards)
		}
	}
}

// TestDegenerateGeometryNoCrash holds two job specs that once took the
// daemon down to an error or a cheap run: a radio range so small that
// the spatial index asked for about 1e12 buckets, and a field so wide
// that uniform placement overflowed to infinite positions.
func TestDegenerateGeometryNoCrash(t *testing.T) {
	tiny := Default(1, 10)
	tiny.Scenario.CommRange = 1e-4
	wide := Default(1, 10)
	wide.Scenario.Deploy.Field = geom.NewRect(geom.Pt(-1e308, -1e308), geom.Pt(1e308, 1e308))
	for name, spec := range map[string]Spec{"tiny-range": tiny, "wide-field": wide} {
		spec.Campaign.HorizonSec = 86400
		b, err := spec.Encode()
		if err != nil {
			t.Fatal(err)
		}
		if spec, err = Decode(b); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := spec.Validate(); err != nil {
			t.Logf("%s: rejected: %v", name, err)
			continue
		}
		if _, err := Run(context.Background(), spec, nil); err != nil {
			t.Logf("%s: run failed: %v", name, err)
			continue
		}
		t.Logf("%s: ran", name)
	}
}
