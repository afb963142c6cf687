package distengine

// The distributed byte-identity fence: every golden campaign flavor
// pinned in internal/campaign/testdata/outcome_digests.json is re-run
// through a real multi-process pool — exec mode (the test binary
// re-execed as a worker, see main_test.go) and TCP mode — and each
// result's canonical digest must equal the pinned golden bit for bit,
// at every shard count. Plain `go test` fences a representative subset
// at 2 shards; WRSN_VERIFY_DIST=1 (wired as `make verify-dist`, with
// -race, in CI) sweeps all flavors at shards 1, 2 and 8 in both modes.
//
// The spec list is kept honest by TestDistCasesCoverGoldenFlavors: it
// must match the golden file's keys exactly in both directions, so a
// flavor added to the campaign harness without a distributed mirror —
// or a stale mirror for a removed flavor — fails loudly.

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"os"
	"testing"
	"time"

	"github.com/reprolab/wrsn-csa/internal/attack"
	"github.com/reprolab/wrsn-csa/internal/campaign"
	"github.com/reprolab/wrsn-csa/internal/charging"
	"github.com/reprolab/wrsn-csa/internal/defense"
	"github.com/reprolab/wrsn-csa/internal/faults"
	"github.com/reprolab/wrsn-csa/internal/jobspec"
	"github.com/reprolab/wrsn-csa/internal/mc"
	"github.com/reprolab/wrsn-csa/internal/snapshot"
	"github.com/reprolab/wrsn-csa/internal/trace"
)

// distGoldenPath anchors the fence to the campaign package's pinned
// digests — the same file the in-process golden, fork, and checkpoint
// fences verify against, so "distributed equals in-process" reduces to
// "distributed equals the one recorded truth".
const distGoldenPath = "../campaign/testdata/outcome_digests.json"

func loadDistGolden(t *testing.T) map[string]string {
	t.Helper()
	b, err := os.ReadFile(distGoldenPath)
	if err != nil {
		t.Fatalf("golden digests missing (%v); regenerate with WRSN_REGEN_GOLDEN=1 in internal/campaign", err)
	}
	var m map[string]string
	if err := json.Unmarshal(b, &m); err != nil {
		t.Fatalf("parse %s: %v", distGoldenPath, err)
	}
	return m
}

// distCase is one golden flavor in wire form: the jobspec.Spec a
// coordinator would ship to a worker process.
type distCase struct {
	name string
	spec jobspec.Spec
}

func attackSpec(seed uint64, n int, cc jobspec.Campaign) jobspec.Spec {
	cc.Seed = seed
	return jobspec.Spec{Kind: jobspec.KindAttack, Scenario: trace.DefaultScenario(seed, n), Campaign: cc}
}

func legitSpec(seed uint64, n int, cc jobspec.Campaign) jobspec.Spec {
	cc.Seed = seed
	return jobspec.Spec{Kind: jobspec.KindLegit, Scenario: trace.DefaultScenario(seed, n), Campaign: cc}
}

func fleetSpec(seed uint64, n, k int) jobspec.Spec {
	return jobspec.Spec{Kind: jobspec.KindFleet, Scenario: trace.DefaultScenario(seed, n),
		Campaign: jobspec.Campaign{Seed: seed}, Chargers: k}
}

func faultSpec(seed uint64, n int, fs faults.Spec) jobspec.Spec {
	s := attackSpec(seed, n, jobspec.Campaign{})
	s.Faults = &fs
	return s
}

// distCases mirrors internal/campaign's goldenCases() flavor for
// flavor, translated into serializable specs. Interface-valued knobs
// ride their canonical wire forms (the EDF scheduler by name); every
// other knob is the same literal the golden harness pins.
func distCases() []distCase {
	cases := []distCase{}
	for _, seed := range []uint64{42, 1000, 8919} {
		cases = append(cases,
			distCase{fmt.Sprintf("legit/seed%d", seed), legitSpec(seed, 120, jobspec.Campaign{})},
			distCase{fmt.Sprintf("csa/seed%d", seed), attackSpec(seed, 120, jobspec.Campaign{})},
			distCase{fmt.Sprintf("greedy/seed%d", seed), attackSpec(seed, 120, jobspec.Campaign{Solver: campaign.SolverGreedyNearest})},
		)
	}
	cases = append(cases,
		distCase{"random/seed42", attackSpec(42, 120, jobspec.Campaign{Solver: campaign.SolverRandom})},
		distCase{"polished/seed42", attackSpec(42, 120, jobspec.Campaign{Solver: campaign.SolverCSAPolished})},
		distCase{"direct-nofill/seed42", attackSpec(42, 120, jobspec.Campaign{Solver: campaign.SolverDirect, NoFill: true})},
		distCase{"progressive/seed42", attackSpec(42, 150, jobspec.Campaign{Progressive: true})},
		distCase{"defense-verify/seed100", attackSpec(100, 120, jobspec.Campaign{Defense: defense.Config{VerifyProb: 0.5}})},
		distCase{"defense-witness/seed42", attackSpec(42, 120, jobspec.Campaign{Defense: defense.Config{WitnessDutyCycle: 1}})},
		distCase{"sampled/seed42", attackSpec(42, 100, jobspec.Campaign{SampleEverySec: 6 * 3600})},
		distCase{"legit-edf/seed42", legitSpec(42, 120, jobspec.Campaign{Scheduler: charging.EDF{}.Name()})},
		distCase{"fleet2/seed42", fleetSpec(42, 150, 2)},
		distCase{"fleet3/seed11", fleetSpec(11, 150, 3)},
		distCase{"faults-node/seed42", faultSpec(42, 120, faults.Spec{
			Seed: 42, HorizonSec: attack.DefaultHorizonSec, NodeFailures: 5})},
		distCase{"faults-loss/seed42", faultSpec(42, 120, faults.Spec{
			Seed: 42, HorizonSec: attack.DefaultHorizonSec, RequestLossProb: 0.3})},
		distCase{"faults-breakdown/seed42", faultSpec(42, 120, faults.Spec{
			Seed: 42, HorizonSec: attack.DefaultHorizonSec, ChargerBreakdowns: 3})},
	)
	return cases
}

// distSubset is the plain-`go test` slice of the matrix: one attack,
// one scheduler-by-name legit (exercises charging.ByName resolution in
// the worker), one fleet (exercises the +Inf-carrying FleetOutcome
// path), one fault flavor (exercises per-run plan compilation).
var distSubset = map[string]bool{
	"csa/seed42":         true,
	"legit-edf/seed42":   true,
	"fleet2/seed42":      true,
	"faults-loss/seed42": true,
}

// TestDistCasesCoverGoldenFlavors pins the fence's coverage: the spec
// list and the golden file must name exactly the same flavors.
func TestDistCasesCoverGoldenFlavors(t *testing.T) {
	want := loadDistGolden(t)
	seen := make(map[string]bool)
	for _, c := range distCases() {
		if seen[c.name] {
			t.Errorf("duplicate distributed case %q", c.name)
		}
		seen[c.name] = true
		if _, ok := want[c.name]; !ok {
			t.Errorf("distributed case %q has no pinned golden digest", c.name)
		}
		if err := c.spec.Validate(); err != nil {
			t.Errorf("case %q: invalid spec: %v", c.name, err)
		}
	}
	for name := range want {
		if !seen[name] {
			t.Errorf("golden flavor %q has no distributed mirror — the byte-identity fence no longer covers it", name)
		}
	}
	for name := range distSubset {
		if !seen[name] {
			t.Errorf("plain-test subset names unknown case %q", name)
		}
	}
}

// newExecTestPool spawns shard worker processes by re-execing this test
// binary (see main_test.go) and returns a pool over them.
func newExecTestPool(t *testing.T, ctx context.Context, shards, crashRetries int) *Pool {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatalf("locate test binary: %v", err)
	}
	pool, err := NewExecPool(ctx, ExecConfig{
		Shards:       shards,
		Command:      exe,
		Env:          append(os.Environ(), workerSentinel+"=1"),
		CrashRetries: crashRetries,
	})
	if err != nil {
		t.Fatalf("exec pool: %v", err)
	}
	t.Cleanup(pool.Close)
	return pool
}

// newTCPTestPool starts an in-process ListenAndServe worker (one
// listener, served concurrently) and dials it once per shard — each
// connection is an independent shard speaking the TCP wire format.
func newTCPTestPool(t *testing.T, ctx context.Context, shards int) *Pool {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	sctx, scancel := context.WithCancel(context.Background())
	t.Cleanup(scancel)
	go func() { _ = ListenAndServe(sctx, ln, nil) }()
	addrs := make([]string, shards)
	for i := range addrs {
		addrs[i] = ln.Addr().String()
	}
	pool, err := Dial(ctx, DialConfig{Addrs: addrs})
	if err != nil {
		t.Fatalf("dial pool: %v", err)
	}
	t.Cleanup(pool.Close)
	return pool
}

// runIdentity sweeps the cases through the pool and verifies every
// result digest against its pinned golden.
func runIdentity(t *testing.T, pool *Pool, cases []distCase, want map[string]string) {
	t.Helper()
	specs := make([]jobspec.Spec, len(cases))
	for i, c := range cases {
		specs[i] = c.spec
	}
	results, err := pool.Run(context.Background(), specs, Options{})
	if err != nil {
		t.Fatalf("pool run: %v", err)
	}
	for i, r := range results {
		name := cases[i].name
		if r.Value == nil {
			t.Errorf("%s: nil result", name)
			continue
		}
		d, err := r.Value.Digest()
		if err != nil {
			t.Errorf("%s: digest: %v", name, err)
			continue
		}
		if d != want[name] {
			t.Errorf("%s: distributed digest drifted from golden:\n got %s\nwant %s", name, d, want[name])
		}
		if r.Elapsed <= 0 {
			t.Errorf("%s: no elapsed time recorded", name)
		}
	}
}

// fenceCases returns the flavor set for this run: everything under
// WRSN_VERIFY_DIST=1, the representative subset otherwise.
func fenceCases(t *testing.T) ([]distCase, map[string]string, []int) {
	t.Helper()
	want := loadDistGolden(t)
	if os.Getenv("WRSN_VERIFY_DIST") != "" {
		return distCases(), want, []int{1, 2, 8}
	}
	var cases []distCase
	for _, c := range distCases() {
		if distSubset[c.name] {
			cases = append(cases, c)
		}
	}
	return cases, want, []int{2}
}

// TestExecPoolGoldenIdentity: worker processes spawned from this test
// binary must reproduce every pinned digest at every shard count.
func TestExecPoolGoldenIdentity(t *testing.T) {
	cases, want, shardCounts := fenceCases(t)
	for _, shards := range shardCounts {
		shards := shards
		t.Run(fmt.Sprintf("shards%d", shards), func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			pool := newExecTestPool(t, ctx, shards, 0)
			runIdentity(t, pool, cases, want)
		})
	}
}

// TestTCPPoolGoldenIdentity: the TCP transport must be
// just as lossless as exec mode at every shard count.
func TestTCPPoolGoldenIdentity(t *testing.T) {
	cases, want, shardCounts := fenceCases(t)
	for _, shards := range shardCounts {
		shards := shards
		t.Run(fmt.Sprintf("shards%d", shards), func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			pool := newTCPTestPool(t, ctx, shards)
			runIdentity(t, pool, cases, want)
		})
	}
}

// TestExecPoolSnapshotSpecIdentity ships a snapshot-carrying spec: the
// worker forks the captured world instead of rebuilding the scenario,
// and the digest must still equal the scenario-built golden — the
// coordinator-side forge dedup must be invisible in results.
func TestExecPoolSnapshotSpecIdentity(t *testing.T) {
	want := loadDistGolden(t)
	snap, err := snapshot.Build(trace.DefaultScenario(42, 120), mc.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	spec, err := attackSpec(42, 120, jobspec.Campaign{}).WithSnapshot(snap)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	pool := newExecTestPool(t, ctx, 1, 0)
	res, err := pool.Submit(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	d, err := res.Digest()
	if err != nil {
		t.Fatal(err)
	}
	if exp := want["csa/seed42"]; d != exp {
		t.Errorf("snapshot-carrying spec drifted from golden:\n got %s\nwant %s", d, exp)
	}
}

// TestWorkerCrashMidJobFailsOver is the crash drill of the acceptance
// bar: a worker process killed while holding a job must fail over to
// the surviving shard and still produce a byte-identical result. The
// reference digest is computed by an in-process run of the same spec
// (on a world big enough that the job is reliably still in flight when
// the kill lands), so the drill also re-proves distributed ≡ in-process
// on a flavor outside the golden file.
func TestWorkerCrashMidJobFailsOver(t *testing.T) {
	spec := attackSpec(42, 400, jobspec.Campaign{})
	start := time.Now()
	local, err := jobspec.Run(context.Background(), spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	localElapsed := time.Since(start)
	want, err := local.Digest()
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	pool := newExecTestPool(t, ctx, 2, DefaultCrashRetries)

	type answer struct {
		res *jobspec.Result
		err error
	}
	done := make(chan answer, 1)
	go func() {
		res, err := pool.Submit(context.Background(), spec)
		done <- answer{res, err}
	}()

	// Wait for the job to be leased to a shard, let the worker get about
	// a quarter of the way through it, then kill that exact process.
	victim := -1
	deadline := time.Now().Add(10 * time.Second)
	for victim < 0 && time.Now().Before(deadline) {
		for _, s := range pool.shards {
			s.mu.Lock()
			if len(s.pending) > 0 {
				victim = s.idx
			}
			s.mu.Unlock()
		}
		if victim < 0 {
			time.Sleep(time.Millisecond)
		}
	}
	if victim < 0 {
		t.Fatal("job never landed on a shard")
	}
	midJob := localElapsed / 4
	if midJob > 2*time.Second {
		midJob = 2 * time.Second
	}
	time.Sleep(midJob)
	pool.KillShard(victim)

	a := <-done
	if a.err != nil {
		t.Fatalf("submit after crash failover: %v", a.err)
	}
	d, err := a.res.Digest()
	if err != nil {
		t.Fatal(err)
	}
	if d != want {
		t.Errorf("failover re-run drifted from the in-process digest:\n got %s\nwant %s", d, want)
	}
	for i := 0; pool.Alive() != 1 && i < 200; i++ {
		time.Sleep(10 * time.Millisecond)
	}
	if got := pool.Alive(); got != 1 {
		t.Errorf("Alive() = %d after killing one of two shards, want 1", got)
	}

	// The surviving shard keeps serving: the same spec resubmitted must
	// reproduce the digest again without any failover left to lean on.
	res, err := pool.Submit(context.Background(), spec)
	if err != nil {
		t.Fatalf("submit on surviving shard: %v", err)
	}
	if d, err := res.Digest(); err != nil || d != want {
		t.Errorf("surviving shard digest = %s (err %v), want %s", d, err, want)
	}
}
