package snapshot_test

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"

	"github.com/reprolab/wrsn-csa/internal/attack"
	"github.com/reprolab/wrsn-csa/internal/campaign"
	"github.com/reprolab/wrsn-csa/internal/digest"
	"github.com/reprolab/wrsn-csa/internal/faults"
	"github.com/reprolab/wrsn-csa/internal/mc"
	"github.com/reprolab/wrsn-csa/internal/sim"
	"github.com/reprolab/wrsn-csa/internal/snapshot"
	"github.com/reprolab/wrsn-csa/internal/trace"
	"github.com/reprolab/wrsn-csa/internal/wrsn"
)

func buildSnap(tb testing.TB, seed uint64, n int) *snapshot.Snapshot {
	tb.Helper()
	s, err := snapshot.Build(trace.DefaultScenario(seed, n), mc.DefaultParams())
	if err != nil {
		tb.Fatal(err)
	}
	return s
}

// mirror has the wire layout field for field: the canonical encoding
// keys by Go field name, so a test can decode a snapshot into it, edit
// it, and re-encode bytes Decode reads as a snapshot.
type mirror struct {
	Version  int
	Scenario trace.Scenario
	ClockSec float64
	Pending  []sim.PendingEvent
	Network  wrsn.State
	Charger  *mc.State
	RNG      *[4]uint64
	Campaign *snapshot.CampaignState
}

// rewrite decodes s's encoding into a mirror, applies edit, and returns
// the re-encoded bytes.
func rewrite(t *testing.T, s *snapshot.Snapshot, edit func(*mirror)) []byte {
	t.Helper()
	b, err := s.Encode()
	if err != nil {
		t.Fatal(err)
	}
	var m mirror
	if err := digest.Decode(b, &m); err != nil {
		t.Fatal(err)
	}
	edit(&m)
	out, err := digest.Canonical(&m)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// Encode→Decode→Encode must be byte-identical, and the digest must ride
// along: the wire form IS the canonical digest form.
func TestEncodeDecodeRoundTrip(t *testing.T) {
	s := buildSnap(t, 42, 60)
	b1, err := s.Encode()
	if err != nil {
		t.Fatal(err)
	}
	d1, err := s.Digest()
	if err != nil {
		t.Fatal(err)
	}
	if d1 != digest.Hash(b1) {
		t.Errorf("Digest %s is not the hash of Encode's bytes %s", d1, digest.Hash(b1))
	}
	if same := rewrite(t, s, func(*mirror) {}); string(same) != string(b1) {
		t.Error("Encode is not the canonical digest encoding of the wire layout")
	}
	s2, err := snapshot.Decode(b1)
	if err != nil {
		t.Fatal(err)
	}
	b2, err := s2.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if string(b1) != string(b2) {
		t.Error("re-encoded snapshot differs from original bytes")
	}
	d2, err := s2.Digest()
	if err != nil {
		t.Fatal(err)
	}
	if d1 != d2 {
		t.Errorf("digest drifted across round trip: %s != %s", d1, d2)
	}
	if s2.NodeCount() != s.NodeCount() || s2.HasCharger() != s.HasCharger() || s2.Scenario() != s.Scenario() {
		t.Error("decoded snapshot lost header fields")
	}
}

func TestDecodeRejectsBadInput(t *testing.T) {
	s := buildSnap(t, 7, 40)
	for _, tc := range []struct {
		name, want string
		in         []byte
	}{
		{"no nodes", "no nodes", rewrite(t, s, func(m *mirror) { m.Network.Nodes = nil })},
		{"clock without campaign", "without campaign state", rewrite(t, s, func(m *mirror) { m.ClockSec = 10 })},
		{"events without campaign", "without campaign state", rewrite(t, s, func(m *mirror) {
			m.Pending = []sim.PendingEvent{{T: 10, Kind: "fault.node"}}
		})},
		{"garbage", "offset 0", []byte(`not json`)},
	} {
		if _, err := snapshot.Decode(tc.in); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want one containing %q", tc.name, err, tc.want)
		}
	}
}

// A fork is fully detached: running a campaign to exhaustion on one fork
// must leave later forks producing the same outcome as the first.
// TestForkRejectsNonFinitePosition: the codec decodes "NaN" and "+Inf"
// floats, so a submitted snapshot can place a node nowhere; the fork
// must refuse it as a fresh build would, not index the grid with it.
func TestForkRejectsNonFinitePosition(t *testing.T) {
	s := buildSnap(t, 7, 12)
	for _, bad := range []float64{math.NaN(), math.Inf(1)} {
		b := rewrite(t, s, func(m *mirror) { m.Network.Nodes[3].Pos.X = bad })
		d, err := snapshot.Decode(b)
		if err != nil {
			t.Fatalf("decode with a node at x=%v: %v", bad, err)
		}
		if _, _, _, err := d.Fork(); err == nil {
			t.Errorf("fork of a snapshot with a node at x=%v succeeded", bad)
		}
	}
}

func TestForkIsolation(t *testing.T) {
	s := buildSnap(t, 42, 60)
	run := func() string {
		nw, ch, _, err := s.Fork()
		if err != nil {
			t.Fatal(err)
		}
		o, err := campaign.RunAttack(context.Background(), nw, ch, campaign.Config{Seed: 42})
		if err != nil {
			t.Fatal(err)
		}
		d, err := digest.Sum(o)
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	first := run()
	if again := run(); again != first {
		t.Errorf("second fork diverged after the first was consumed: %s != %s", again, first)
	}
}

// Build keeps the world it built as the fork template, Capture a copy of
// the caller's world, and a decoded snapshot a FromState rebuild; a fork
// of each must run the same campaign.
func TestBuildTemplateMatchesCapture(t *testing.T) {
	sc := trace.DefaultScenario(7, 80)
	run := func(s *snapshot.Snapshot) string {
		t.Helper()
		nw, ch, _, err := s.Fork()
		if err != nil {
			t.Fatal(err)
		}
		o, err := campaign.RunAttack(context.Background(), nw, ch, campaign.Config{Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		d, err := digest.Sum(o)
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	built := buildSnap(t, 7, 80)
	nw, rest, err := sc.Build()
	if err != nil {
		t.Fatal(err)
	}
	captured, err := snapshot.Capture(sc, nw, mc.New(nw.Sink(), mc.DefaultParams()), rest)
	if err != nil {
		t.Fatal(err)
	}
	b, err := built.Encode()
	if err != nil {
		t.Fatal(err)
	}
	decoded, err := snapshot.Decode(b)
	if err != nil {
		t.Fatal(err)
	}
	want := run(captured)
	if got := run(built); got != want {
		t.Errorf("fork of Build's snapshot: %s, of Capture's: %s", got, want)
	}
	if got := run(decoded); got != want {
		t.Errorf("fork of the decoded snapshot: %s, of Capture's: %s", got, want)
	}
}

// Forking must be safe from many goroutines over one shared template —
// the whole point of the snapshot is concurrent seed sweeps. Run under
// -race.
func TestConcurrentFork(t *testing.T) {
	s := buildSnap(t, 3, 50)
	const workers = 8
	digests := make([]string, workers)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			nw, ch, _, err := s.Fork()
			if err != nil {
				t.Error(err)
				return
			}
			o, err := campaign.RunLegit(context.Background(), nw, ch, campaign.Config{Seed: 3})
			if err != nil {
				t.Error(err)
				return
			}
			d, err := digest.Sum(o)
			if err != nil {
				t.Error(err)
				return
			}
			digests[i] = d
		}(i)
	}
	wg.Wait()
	for i := 1; i < workers; i++ {
		if digests[i] != digests[0] {
			t.Errorf("concurrent fork %d diverged: %s != %s", i, digests[i], digests[0])
		}
	}
}

// snapshot.Capture without a charger forks a nil charger; the caller supplies its
// own. The RNG tail must still restore exactly.
func TestCaptureWithoutCharger(t *testing.T) {
	sc := trace.DefaultScenario(9, 40)
	nw, rest, err := sc.Build()
	if err != nil {
		t.Fatal(err)
	}
	want := rest.Uint64() // consume one draw AFTER capture would restore here
	// Rebuild to get an identical stream, capture, then fork.
	nw2, rest2, err := sc.Build()
	if err != nil {
		t.Fatal(err)
	}
	s, err := snapshot.Capture(sc, nw2, nil, rest2)
	if err != nil {
		t.Fatal(err)
	}
	if s.HasCharger() {
		t.Error("charger-less capture claims a charger")
	}
	fnw, fch, frest, err := s.Fork()
	if err != nil {
		t.Fatal(err)
	}
	if fch != nil {
		t.Error("fork invented a charger")
	}
	if fnw.Len() != nw.Len() {
		t.Errorf("forked network has %d nodes, want %d", fnw.Len(), nw.Len())
	}
	if got := frest.Uint64(); got != want {
		t.Errorf("restored rng draw %d != original %d", got, want)
	}
}

// TestForkWorldParksDefaultCharger pins ForkWorld's fallback: a
// charger-less snapshot forks with a default charger at the sink, and a
// captured charger is forked, not replaced.
func TestForkWorldParksDefaultCharger(t *testing.T) {
	sc := trace.DefaultScenario(9, 40)
	nw, rest, err := sc.Build()
	if err != nil {
		t.Fatal(err)
	}
	bare, err := snapshot.Capture(sc, nw, nil, rest)
	if err != nil {
		t.Fatal(err)
	}
	fnw, fch, err := bare.ForkWorld()
	if err != nil {
		t.Fatal(err)
	}
	if fch == nil || fch.Pos() != fnw.Sink() || fch.Params() != mc.DefaultParams() {
		t.Fatalf("charger-less fork got %+v, want a default charger at the sink", fch)
	}
	p := mc.DefaultParams()
	p.SpeedMps *= 2
	withCh, err := snapshot.Capture(sc, nw, mc.New(nw.Sink(), p), nil)
	if err != nil {
		t.Fatal(err)
	}
	_, fch, err = withCh.ForkWorld()
	if err != nil {
		t.Fatal(err)
	}
	if fch.Params() != p {
		t.Errorf("captured charger params %+v replaced by %+v", p, fch.Params())
	}
}

// buildLiveSnap runs a campaign (campaign.RunLegit or RunAttack) to its
// 50th checkpoint barrier and returns the live snapshot captured there.
func buildLiveSnap(tb testing.TB, run func(context.Context, *wrsn.Network, *mc.Charger, campaign.Config) (*campaign.Outcome, error)) *snapshot.Snapshot {
	tb.Helper()
	sc := trace.DefaultScenario(42, 60)
	nw, _, err := sc.Build()
	if err != nil {
		tb.Fatal(err)
	}
	ch := mc.New(nw.Sink(), mc.DefaultParams())
	var (
		snap     *snapshot.Snapshot
		barriers int
	)
	// A fault plan keeps not-yet-fired events in the engine queue for the
	// whole run, so the capture carries a non-empty pending set.
	plan := faults.New(faults.Spec{Seed: 42, HorizonSec: attack.DefaultHorizonSec, NodeFailures: 5}, nw.Len())
	cfg := campaign.Config{Seed: 42, Faults: plan, Checkpoint: &campaign.CheckpointPlan{
		Scenario: sc,
		Sink:     func(s *snapshot.Snapshot) error { snap = s; return nil },
		Stop:     func() bool { barriers++; return barriers == 50 },
	}}
	if _, err := run(context.Background(), nw, ch, cfg); !errors.Is(err, campaign.ErrStopped) {
		tb.Fatalf("err = %v, want ErrStopped", err)
	}
	if snap == nil {
		tb.Fatal("no snapshot captured")
	}
	return snap
}

// withVersion rewrites the trailing Version field — the last key of the
// canonical layout — of an encoded snapshot.
func withVersion(t *testing.T, b []byte, tail string) string {
	t.Helper()
	cur := `"Version":4}`
	if !strings.HasSuffix(string(b), cur) {
		t.Fatalf("encoding does not end with %s", cur)
	}
	return strings.TrimSuffix(string(b), cur) + tail
}

// A snapshot carrying a field this build does not understand must fail
// loudly: silently dropping state and resuming from the rest would
// corrupt the run. Barrier and live snapshots share the strict decoder.
func TestDecodeRejectsUnknownFields(t *testing.T) {
	for name, s := range map[string]*snapshot.Snapshot{"barrier": buildSnap(t, 7, 40), "live": buildLiveSnap(t, campaign.RunLegit)} {
		b, err := s.Encode()
		if err != nil {
			t.Fatal(err)
		}
		patched := withVersion(t, b, `"Version":4,"Zfuture":7}`)
		_, err = snapshot.Decode([]byte(patched))
		var de *digest.DecodeError
		if !errors.As(err, &de) {
			t.Errorf("%s: err = %v, want a *digest.DecodeError", name, err)
		}
	}
}

// A wire version other than this build's fails with the version it
// carries and the one the build does read, so operators can tell a stale
// binary from corruption: a version-3 checkpoint from a build before the
// live layout changed, or a version from a newer build.
func TestDecodeRejectsFutureVersion(t *testing.T) {
	for name, s := range map[string]*snapshot.Snapshot{"barrier": buildSnap(t, 7, 40), "live": buildLiveSnap(t, campaign.RunLegit)} {
		b, err := s.Encode()
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range []int{3, 5} {
			_, err = snapshot.Decode([]byte(withVersion(t, b, fmt.Sprintf(`"Version":%d}`, v))))
			if want := fmt.Sprintf("unsupported wire version %d (this build reads version 4)", v); err == nil || !strings.Contains(err.Error(), want) {
				t.Errorf("%s: version %d error = %v, want one containing %q", name, v, err, want)
			}
		}
	}
}

// A live snapshot round-trips byte-identically, and decoded accessors
// hand out defensive copies: mutating the returned pending events must
// not corrupt the snapshot another resume will read.
func TestLiveRoundTripAndPendingIsolation(t *testing.T) {
	s := buildLiveSnap(t, campaign.RunLegit)
	if !s.Live() {
		t.Fatal("checkpoint not live")
	}
	b1, err := s.Encode()
	if err != nil {
		t.Fatal(err)
	}
	s2, err := snapshot.Decode(b1)
	if err != nil {
		t.Fatal(err)
	}
	b2, err := s2.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if string(b1) != string(b2) {
		t.Error("live snapshot did not round-trip byte-identically")
	}
	evs := s2.PendingEvents()
	if len(evs) == 0 {
		t.Fatal("live snapshot has no pending events")
	}
	evs[0].Kind = "corrupted"
	evs[0].T = -1
	if again := s2.PendingEvents(); again[0].Kind == "corrupted" || again[0].T == -1 {
		t.Error("PendingEvents returned shared storage; a caller mutation leaked back")
	}
	// Fork of a live snapshot is allowed (that is how resume starts) and
	// must not be perturbed by the mutation above.
	if _, _, _, err := s2.Fork(); err != nil {
		t.Errorf("fork of live snapshot: %v", err)
	}
}
