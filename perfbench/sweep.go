package main

import (
	"bytes"
	"context"
	"encoding/gob"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"github.com/reprolab/wrsn-csa/internal/campaign"
	"github.com/reprolab/wrsn-csa/internal/digest"
	"github.com/reprolab/wrsn-csa/internal/distengine"
	"github.com/reprolab/wrsn-csa/internal/experiments/engine"
	"github.com/reprolab/wrsn-csa/internal/jobspec"
	"github.com/reprolab/wrsn-csa/internal/mc"
	"github.com/reprolab/wrsn-csa/internal/snapshot"
)

// Shape of the sweep-sharded workload.
const (
	sweepShards    = 2   // wrsnworker processes, GOMAXPROCS=1 each
	sweepDistinct  = 120 // distinct snapshot-carrying n=200 legit specs
	sweepWarm      = 4
	sweepSetupReps = 3
)

// wireResult mirrors the gob payload of a distengine result frame. Gob
// matches fields by name, so a round trip through this type is the one
// the worker wire makes.
type wireResult struct {
	Outcome *campaign.Outcome
	Fleet   *campaign.FleetOutcome
}

// gobRoundTrip returns the digest of the result after a gob round trip,
// and the payload size. A digest that differs from the original's is the
// known wire failure: gob decodes an empty slice as nil, canonical JSON
// then renders [] as null, and the coordinator rejects the job as a
// wire-integrity error.
func gobRoundTrip(res *jobspec.Result) (string, int, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(wireResult{res.Outcome, res.Fleet}); err != nil {
		return "", 0, err
	}
	size := buf.Len()
	var w wireResult
	if err := gob.NewDecoder(&buf).Decode(&w); err != nil {
		return "", 0, err
	}
	d, err := (&jobspec.Result{Outcome: w.Outcome, Fleet: w.Fleet}).Digest()
	return d, size, err
}

// forgeSweepSpecs builds each distinct world once and carries it, as an
// encoded snapshot, inside its spec — the shape experiments dispatches.
func forgeSweepSpecs(tr *tracer, rep int, seeds []uint64) ([]jobspec.Spec, error) {
	specs := make([]jobspec.Spec, len(seeds))
	for i, s := range seeds {
		base := jobspec.Default(s, 200)
		base.Campaign.Shards = 1
		id := tr.begin("snapshot.build", -1-rep, -1)
		snap, err := snapshot.Build(base.Scenario, mc.DefaultParams())
		tr.end(id)
		if err != nil {
			return nil, err
		}
		id = tr.begin("snapshot.encode", -1-rep, -1)
		specs[i], err = base.WithSnapshot(snap)
		tr.end(id)
		if err != nil {
			return nil, err
		}
	}
	return specs, nil
}

// runSweep: a closed loop through a distengine exec pool of wrsnworker
// processes in keep-going mode; each op is a snapshot-carrying 14-day
// legit n=200 spec.
func runSweep(ctx context.Context, b *bench) error {
	seeds := specSeeds(b.seed, "sweep-sharded", sweepDistinct)
	var (
		specs []jobspec.Spec
		pools []*distengine.Pool
	)
	defer func() {
		for _, p := range pools {
			p.Close()
		}
	}()
	// Set-up is forging the snapshots plus worker spawn and handshake.
	if err := b.timeSetup(sweepSetupReps, func(rep int) error {
		var err error
		if specs, err = forgeSweepSpecs(b.tr, rep, seeds); err != nil {
			return err
		}
		id := b.tr.begin("dist.handshake", -1-rep, -1)
		p, err := distengine.NewExecPool(ctx, distengine.ExecConfig{
			Shards:  sweepShards,
			Command: filepath.Join(b.bin, "wrsnworker"),
			Env:     append(os.Environ(), fmt.Sprintf("GOMAXPROCS=%d", gomaxprocs)),
			Stderr:  os.Stderr,
			// No failover: a lost job is a failure, not a silent retry.
			CrashRetries: 0,
		})
		b.tr.end(id)
		if err != nil {
			return err
		}
		pools = append(pools, p)
		return nil
	}); err != nil {
		return err
	}
	// Only the last set-up's pool serves; the others stop now.
	for _, p := range pools[:len(pools)-1] {
		p.Close()
	}
	pool := pools[len(pools)-1]
	pools = pools[len(pools)-1:]
	b.use = usage{pids: childPIDs("wrsnworker")}
	if len(b.use.pids) != sweepShards {
		return fmt.Errorf("found %d wrsnworker processes, want %d", len(b.use.pids), sweepShards)
	}

	refs, err := references(ctx, specs, true)
	if err != nil {
		return err
	}
	// Specs whose outcome the gob wire cannot carry are kept off the op
	// list and sent once each as probes below.
	var good []int
	var known []int
	for i, r := range refs {
		d, size, err := gobRoundTrip(r.result)
		if err != nil {
			return err
		}
		if b.traced() {
			b.layer["dist.result_bytes"] += float64(size) / float64(len(refs))
		}
		if d == r.digest {
			good = append(good, i)
		} else {
			known = append(known, i)
		}
	}
	if len(good) == 0 {
		return errors.New("every spec hits the known gob failure")
	}
	opSpec := func(i int) int { return good[i%len(good)] }

	for i := 0; i < sweepWarm; i++ {
		res, err := pool.Submit(ctx, specs[opSpec(i)])
		if err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
		if d, _ := res.Digest(); d != refs[opSpec(i)].digest {
			b.mismatch("warm-up op %d: digest %s, library path %s", i, d, refs[opSpec(i)].digest)
		}
	}

	err = b.measure(ctx, func(ctx context.Context, tr *tracer) (passOut, error) {
		if tr != nil {
			return tracedSweep(ctx, b, tr, pool, specs, refs, opSpec)
		}
		ops := make([]jobspec.Spec, b.nops)
		for i := range ops {
			ops[i] = specs[opSpec(i)]
		}
		cpu0, err := b.use.cpu()
		if err != nil {
			return passOut{}, err
		}
		t0 := time.Now()
		results, runErr := pool.Run(ctx, ops, distengine.Options{Job: engine.Options{KeepGoing: true}})
		wall := time.Since(t0).Seconds()
		cpu1, err := b.use.cpu()
		if err != nil {
			return passOut{}, err
		}
		failed := failedJobs(runErr)
		out := passOut{wallS: wall, cpuS: cpu1 - cpu0}
		for i, r := range results {
			if failed[i] || r.Value == nil {
				b.fail(causeError)
				continue
			}
			if b.check(nil, i, r.Value.Outcome, refs[opSpec(i)].digest) {
				out.lat = append(out.lat, ms(r.Elapsed))
			}
		}
		return out, nil
	})
	if err != nil {
		return err
	}
	return probeKnown(ctx, b, pool, specs, refs, known)
}

// failedJobs returns the op indices a keep-going sweep reported failed.
func failedJobs(err error) map[int]bool {
	failed := make(map[int]bool)
	if err == nil {
		return failed
	}
	errs := []error{err}
	if j, ok := err.(interface{ Unwrap() []error }); ok {
		errs = j.Unwrap()
	}
	for _, e := range errs {
		var je *engine.JobError
		if errors.As(e, &je) {
			failed[je.Job] = true
		}
	}
	return failed
}

// tracedSweep runs the op list with two client goroutines, each a closed
// loop over Pool.Submit, so every op gets a dist.roundtrip span. Outside
// that region it times each op's codec layers and, per distinct spec,
// the same job run in-process.
func tracedSweep(ctx context.Context, b *bench, tr *tracer, pool *distengine.Pool, specs []jobspec.Spec, refs []reference, opSpec func(int) int) (passOut, error) {
	results := make([]*jobspec.Result, b.nops)
	errs := make([]error, b.nops)
	lat := make([]float64, b.nops)
	var wg sync.WaitGroup
	t0 := time.Now()
	for g := 0; g < sweepShards; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; i < b.nops; i += sweepShards {
				id := tr.begin("dist.roundtrip", i, -1)
				start := time.Now()
				results[i], errs[i] = pool.Submit(ctx, specs[opSpec(i)])
				lat[i] = ms(time.Since(start))
				tr.end(id)
			}
		}(g)
	}
	wg.Wait()
	out := passOut{wallS: time.Since(t0).Seconds()}
	for i := range results {
		if errs[i] != nil {
			b.fail(causeError)
			continue
		}
		if b.check(nil, i, results[i].Outcome, refs[opSpec(i)].digest) {
			out.lat = append(out.lat, lat[i])
			b.count(results[i].Outcome)
		}
	}
	n := float64(b.nops)
	for i := 0; i < b.nops; i++ {
		spec := specs[opSpec(i)]
		id := tr.begin("jobspec.encode", i, -1)
		body, err := json.Marshal(spec)
		tr.end(id)
		if err != nil {
			return passOut{}, err
		}
		id = tr.begin("jobspec.decode", i, -1)
		dec, err := jobspec.Decode(body)
		tr.end(id)
		if err != nil {
			return passOut{}, err
		}
		id = tr.begin("jobspec.validate", i, -1)
		err = dec.Validate()
		tr.end(id)
		if err != nil {
			return passOut{}, err
		}
		// The worker decodes the snapshot twice: once in Validate, once
		// to build the world.
		for range 2 {
			id = tr.begin("snapshot.decode", i, -1)
			_, err = snapshot.Decode(dec.Snapshot)
			tr.end(id)
			if err != nil {
				return passOut{}, err
			}
		}
		id = tr.begin("digest.canonical", i, -1)
		canon, err := digest.Canonical(refs[opSpec(i)].result.Outcome)
		tr.end(id)
		if err != nil {
			return passOut{}, err
		}
		b.layer["jobspec.bytes"] += float64(len(body)) / n
		b.layer["snapshot.bytes"] += float64(len(dec.Snapshot)) / n
		b.layer["digest.bytes"] += float64(len(canon)) / n
	}
	for k, spec := range specs {
		id := tr.begin("dist.inproc", k, -1)
		_, err := jobspec.Run(ctx, spec, nil)
		tr.end(id)
		if err != nil {
			return passOut{}, err
		}
	}
	return out, nil
}

// probeKnown sends each spec that hits the known gob empty-slice failure
// through the pool once, after the timed region. Each must come back as
// the predicted wire-integrity rejection, or — once the wire carries
// empty slices — with the library path's digest.
func probeKnown(ctx context.Context, b *bench, pool *distengine.Pool, specs []jobspec.Spec, refs []reference, known []int) error {
	rejects := 0
	for _, k := range known {
		res, err := pool.Submit(ctx, specs[k])
		switch {
		case err != nil && strings.Contains(err.Error(), "wire integrity"):
			rejects++
		case err != nil:
			b.mismatch("known-failure probe (spec %d): unexpected error: %v", k, err)
		default:
			if d, _ := res.Digest(); d != refs[k].digest {
				b.mismatch("known-failure probe (spec %d): digest %s, library path %s", k, d, refs[k].digest)
			}
		}
	}
	b.layer["dist.gob_nil_rejects"] = float64(rejects)
	fmt.Printf("known gob empty-slice failure: %d of %d distinct specs kept off the op list; %d rejected by the coordinator as predicted\n",
		len(known), len(specs), rejects)
	return nil
}
