package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"

	"github.com/reprolab/wrsn-csa/internal/attack"
	"github.com/reprolab/wrsn-csa/internal/campaign"
	"github.com/reprolab/wrsn-csa/internal/charging"
	"github.com/reprolab/wrsn-csa/internal/digest"
	"github.com/reprolab/wrsn-csa/internal/jobspec"
	"github.com/reprolab/wrsn-csa/internal/mc"
	"github.com/reprolab/wrsn-csa/internal/snapshot"
	"github.com/reprolab/wrsn-csa/internal/trace"
)

// Op-list shapes of the two in-process workloads.
const (
	attackDistinct  = 120 // distinct n=200 worlds attack-200 cycles through
	attackWarm      = 4
	attackSetupReps = 40
	legitDistinct   = 3 // campaign seeds legit-10k cycles through
	legitWarm       = 1
	legitSetupReps  = 9
	legitN          = 10_000
	legitHorizonSec = 2 * 24 * 3600
	legitPollSec    = 900
)

// reference is the library path's answer for one distinct spec.
type reference struct {
	digest string
	result *jobspec.Result
}

// references runs every distinct spec through jobspec.Run, outside any
// timed region: the digests every op is checked against. The results
// themselves are kept only when keep is set, so that peak RSS measures
// the ops rather than the benchmark's references.
func references(ctx context.Context, specs []jobspec.Spec, keep bool) ([]reference, error) {
	refs := make([]reference, len(specs))
	for i, s := range specs {
		res, err := jobspec.Run(ctx, s, nil)
		if err != nil {
			return nil, fmt.Errorf("reference %d: %w", i, err)
		}
		d, err := res.Digest()
		if err != nil {
			return nil, fmt.Errorf("reference %d: %w", i, err)
		}
		refs[i].digest = d
		if keep {
			refs[i].result = res
		}
	}
	return refs, nil
}

// check digests an in-process op's outcome (a traced digest.canonical
// span) and counts the op as completed or as a digest failure.
func (b *bench) check(tr *tracer, op int, o *campaign.Outcome, want string) bool {
	id := tr.begin("digest.canonical", op, -1)
	canon, err := digest.Canonical(o)
	tr.end(id)
	if err != nil {
		b.fail(causeError)
		return false
	}
	sum := sha256.Sum256(canon)
	if got := hex.EncodeToString(sum[:]); got != want {
		b.fail(causeDigest)
		b.mismatch("op %d: digest %s, library path %s", op, got, want)
		return false
	}
	b.ok()
	if tr != nil {
		b.layer["digest.bytes"] += float64(len(canon)) / float64(b.nops)
		b.count(o)
	}
	return true
}

// count adds one op's campaign counts, per op, to the per-layer figures.
// A performance change must leave them identical.
func (b *bench) count(o *campaign.Outcome) {
	n := float64(b.nops)
	b.layer["campaign.requests_issued"] += float64(o.RequestsIssued) / n
	b.layer["campaign.requests_served"] += float64(o.RequestsServed) / n
	b.layer["campaign.deaths"] += float64(o.DeadTotal) / n
	b.layer["campaign.key_dead"] += float64(o.KeyDead) / n
	for _, s := range o.Sessions {
		switch s.Kind {
		case charging.SessionFocus:
			b.layer["campaign.sessions_focus"] += 1 / n
		case charging.SessionSpoof:
			b.layer["campaign.sessions_spoof"] += 1 / n
		}
	}
}

func attackSpecs(seed uint64) []jobspec.Spec {
	var specs []jobspec.Spec
	for _, s := range specSeeds(seed, "attack-200", attackDistinct) {
		sp := jobspec.Default(s, 200)
		sp.Kind = jobspec.KindAttack
		sp.Campaign.Shards = 1
		specs = append(specs, sp)
	}
	return specs
}

// runAttack200: a closed loop with one client; each op is one TIDE/CSA
// attack campaign on an n=200 default-scenario world over the default
// 14-day horizon — the paper's headline configuration.
func runAttack200(ctx context.Context, b *bench) error {
	specs := attackSpecs(b.seed)
	// Set-up is the op list in job-file form, decoded and validated; the
	// worlds are built per op.
	files := make([][]byte, b.nops)
	for i := range files {
		f, err := specs[i%len(specs)].Encode()
		if err != nil {
			return err
		}
		files[i] = f
	}
	if err := b.timeSetup(attackSetupReps, func(int) error {
		for i, f := range files {
			s, err := jobspec.Decode(f)
			if err != nil {
				return err
			}
			if err := s.Validate(); err != nil {
				return fmt.Errorf("op %d: %w", i, err)
			}
		}
		return nil
	}); err != nil {
		return err
	}
	refs, err := references(ctx, specs, false)
	if err != nil {
		return err
	}
	for i := 0; i < attackWarm; i++ {
		if _, err := jobspec.Run(ctx, specs[i%len(specs)], nil); err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
	}
	return b.measure(ctx, func(ctx context.Context, tr *tracer) (passOut, error) {
		k := opClock{sens: b.sensitivity}
		for i := 0; i < b.nops; i++ {
			spec := specs[i%len(specs)]
			if tr != nil {
				if err := planProbe(tr, i, spec); err != nil {
					return passOut{}, err
				}
			}
			k.start()
			o, err := attackOp(ctx, tr, i, spec)
			k.stop()
			if err != nil {
				b.fail(causeError)
				continue
			}
			if b.check(tr, i, o, refs[i%len(refs)].digest) {
				k.keep()
			}
		}
		return k.out, nil
	})
}

// attackOp is jobspec.Run for an attack spec, spelled out so a traced
// run can put a span around each layer it calls.
func attackOp(ctx context.Context, tr *tracer, op int, spec jobspec.Spec) (*campaign.Outcome, error) {
	if tr == nil {
		res, err := jobspec.Run(ctx, spec, nil)
		if err != nil {
			return nil, err
		}
		return res.Outcome, nil
	}
	root := tr.begin("op", op, -1)
	defer tr.end(root)
	id := tr.begin("jobspec.validate", op, root)
	err := spec.Validate()
	tr.end(id)
	if err != nil {
		return nil, err
	}
	id = tr.begin("trace.build", op, root)
	nw, _, err := spec.Scenario.Build()
	tr.end(id)
	if err != nil {
		return nil, err
	}
	cfg, err := spec.Config(nil, nw.Len())
	if err != nil {
		return nil, err
	}
	id = tr.begin("campaign.run", op, root)
	defer tr.end(id)
	return campaign.RunAttack(ctx, nw, mc.New(nw.Sink(), mc.DefaultParams()), cfg)
}

// planProbe times, on a separate copy of the op's world, the planning
// RunAttack does when it starts: BuildInstance, then SolveCSA.
func planProbe(tr *tracer, op int, spec jobspec.Spec) error {
	nw, _, err := spec.Scenario.Build()
	if err != nil {
		return err
	}
	ch := mc.New(nw.Sink(), mc.DefaultParams())
	id := tr.begin("attack.instance", op, -1)
	in, err := attack.BuildInstance(nw, ch, attack.BuilderConfig{})
	tr.end(id)
	if err != nil {
		return err
	}
	id = tr.begin("attack.solve", op, -1)
	_, err = attack.SolveCSA(in)
	tr.end(id)
	return err
}

// large10kScenario is the death-heavy 10k-node world of the campaign
// package's large10k benchmark: scenario seed 42, batteries at 12–50%.
func large10kScenario() trace.Scenario {
	sc := trace.DefaultScenario(42, legitN)
	sc.Deploy.InitialFracMin, sc.Deploy.InitialFracMax = 0.12, 0.5
	return sc
}

// legitSpecs cycles campaign seeds derived from seed over one world, the
// large10k benchmark's own. A 10k-node world's cost depends on its
// layout, so a world per seed would spread the figures.
func legitSpecs(seed uint64) []jobspec.Spec {
	sc := large10kScenario()
	var specs []jobspec.Spec
	for _, cs := range specSeeds(seed, "legit-10k", legitDistinct) {
		specs = append(specs, jobspec.Spec{
			Kind:     jobspec.KindLegit,
			Scenario: sc,
			Campaign: jobspec.Campaign{Seed: cs, HorizonSec: legitHorizonSec, PollSec: legitPollSec, Shards: 1},
		})
	}
	return specs
}

// runLegit10k: a closed loop with one client; each op forks the
// death-heavy 10k-node world from a snapshot forged during set-up and
// runs a 2-day legit campaign on it. No planning, no wire.
func runLegit10k(ctx context.Context, b *bench) error {
	specs := legitSpecs(b.seed)
	sc := specs[0].Scenario
	var snap *snapshot.Snapshot
	if err := b.timeSetup(legitSetupReps, func(rep int) error {
		var err error
		id := b.tr.begin("snapshot.build", -1-rep, -1)
		snap, err = snapshot.Build(sc, mc.DefaultParams())
		b.tr.end(id)
		return err
	}); err != nil {
		return err
	}
	if b.traced() {
		if err := codecProbe(b, sc, snap); err != nil {
			return err
		}
	}
	refs, err := references(ctx, specs, false)
	if err != nil {
		return err
	}
	for i := 0; i < legitWarm; i++ {
		if _, err := legitOp(ctx, nil, i, snap, specs[i%len(specs)]); err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
	}
	return b.measure(ctx, func(ctx context.Context, tr *tracer) (passOut, error) {
		k := opClock{sens: b.sensitivity}
		for i := 0; i < b.nops; i++ {
			k.start()
			o, err := legitOp(ctx, tr, i, snap, specs[i%len(specs)])
			k.stop()
			if err != nil {
				b.fail(causeError)
				continue
			}
			if b.check(tr, i, o, refs[i%len(refs)].digest) {
				k.keep()
			}
		}
		return k.out, nil
	})
}

// legitOp forks the forged world and runs the spec's legit campaign on
// it — what jobspec.Run does for a snapshot-carrying spec, minus the
// snapshot decode.
func legitOp(ctx context.Context, tr *tracer, op int, snap *snapshot.Snapshot, spec jobspec.Spec) (*campaign.Outcome, error) {
	root := tr.begin("op", op, -1)
	defer tr.end(root)
	id := tr.begin("snapshot.fork", op, root)
	nw, ch, _, err := snap.Fork()
	tr.end(id)
	if err != nil {
		return nil, err
	}
	if ch == nil {
		ch = mc.New(nw.Sink(), mc.DefaultParams())
	}
	cfg, err := spec.Config(nil, nw.Len())
	if err != nil {
		return nil, err
	}
	id = tr.begin("campaign.run", op, root)
	defer tr.end(id)
	return campaign.RunLegit(ctx, nw, ch, cfg)
}

// codecProbe times, once per traced run, the layers legit-10k's set-up
// could pay instead: a plain scenario build, and the snapshot's wire
// encoding and decoding.
func codecProbe(b *bench, sc trace.Scenario, snap *snapshot.Snapshot) error {
	id := b.tr.begin("trace.build", -1, -1)
	_, _, err := sc.Build()
	b.tr.end(id)
	if err != nil {
		return err
	}
	id = b.tr.begin("snapshot.encode", -1, -1)
	enc, err := snap.Encode()
	b.tr.end(id)
	if err != nil {
		return err
	}
	b.layer["snapshot.bytes"] = float64(len(enc))
	id = b.tr.begin("snapshot.decode", -1, -1)
	_, err = snapshot.Decode(enc)
	b.tr.end(id)
	return err
}
