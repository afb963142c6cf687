// Command wrsncsad is the campaign-as-a-service daemon: a long-running
// HTTP/JSON server that accepts serialized campaign jobs (jobspec.Spec),
// runs them on a bounded worker pool, and serves statuses, canonical
// outcomes, fault reports and streaming telemetry windows.
//
//	POST   /v1/jobs                submit a job (429 + Retry-After when full)
//	GET    /v1/jobs                list jobs
//	GET    /v1/jobs/{id}           poll one job
//	DELETE /v1/jobs/{id}           cancel
//	GET    /v1/jobs/{id}/outcome   canonical outcome JSON + digest
//	GET    /v1/jobs/{id}/telemetry cumulative telemetry snapshot
//	GET    /v1/jobs/{id}/stream    NDJSON status + telemetry windows
//	GET    /v1/healthz             health, queue and job counts
//
// SIGTERM/SIGINT triggers a graceful drain: intake closes (503), queued
// and in-flight jobs run to completion within -drain-timeout, then the
// process exits. With -persist-dir and -checkpoint-every set, jobs
// still in flight when the drain budget expires are parked at live
// checkpoints instead of canceled, and the next daemon on the same
// persist dir resumes them mid-campaign. Results are deterministic: the
// same spec yields the same Outcome digest as the in-process library
// path, at any worker count and across any kill/resume cycle (-smoke
// proves the HTTP path end to end and exits).
//
// Usage:
//
//	wrsncsad [-addr :8077] [-queue 64] [-workers 0] [-job-timeout 0]
//	         [-retry-after 1s] [-drain-timeout 30s]
//	         [-max-results 10000] [-persist-dir dir] [-checkpoint-every 0]
//	         [-metrics daemon.csv] [-events events.json] [-smoke]
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"github.com/reprolab/wrsn-csa/client"
	"github.com/reprolab/wrsn-csa/internal/cliexport"
	"github.com/reprolab/wrsn-csa/internal/jobspec"
	"github.com/reprolab/wrsn-csa/internal/obs"
	"github.com/reprolab/wrsn-csa/internal/service"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "wrsncsad:", err)
		os.Exit(1)
	}
}

// defaultMaxResults is -max-results' default: enough finished jobs for a
// client to collect its results, few enough that a long-lived daemon's
// memory stops growing with every job it has ever run.
const defaultMaxResults = 10_000

// config is the daemon's parsed command line.
type config struct {
	addr         string
	drainTimeout time.Duration
	smoke        bool
	opts         service.Options
	tel          cliexport.Telemetry
}

// parseFlags parses the command line into the service options and the
// daemon's own settings.
func parseFlags(args []string) (*config, error) {
	fs := flag.NewFlagSet("wrsncsad", flag.ContinueOnError)
	addr := fs.String("addr", ":8077", "listen address")
	queue := fs.Int("queue", 64, "job intake queue depth (full queue → 429 + Retry-After)")
	workers := fs.Int("workers", 0, "concurrent campaign workers (0 = GOMAXPROCS)")
	jobTimeout := fs.Duration("job-timeout", 0, "wall-clock limit for one job (0 = none)")
	retryAfter := fs.Duration("retry-after", time.Second, "Retry-After hint returned with 429/503")
	drainTimeout := fs.Duration("drain-timeout", 30*time.Second, "graceful-drain budget on SIGTERM before in-flight jobs are canceled")
	maxResults := fs.Int("max-results", defaultMaxResults, "finished jobs to retain; older ones are evicted and answer 410 Gone (0 = unbounded)")
	persistDir := fs.String("persist-dir", "", "directory for durable job specs; queued/running jobs are re-run after a restart (empty = no persistence)")
	checkpointEvery := fs.Duration("checkpoint-every", 0, "live-checkpoint interval for running jobs (requires -persist-dir; 0 = off); checkpointed jobs survive kills and resume mid-campaign on restart")
	smoke := fs.Bool("smoke", false, "self-test: serve on a loopback port, run jobs through the HTTP path, verify digests against the library path, drain, exit")
	cfg := &config{}
	cfg.tel.Register(fs)
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if *checkpointEvery > 0 && *persistDir == "" {
		return nil, errors.New("-checkpoint-every needs -persist-dir: checkpoints must land somewhere durable")
	}
	cfg.addr, cfg.drainTimeout, cfg.smoke = *addr, *drainTimeout, *smoke
	cfg.opts = service.Options{
		QueueDepth:      *queue,
		Workers:         *workers,
		JobTimeout:      *jobTimeout,
		RetryAfter:      *retryAfter,
		MaxResults:      *maxResults,
		PersistDir:      *persistDir,
		CheckpointEvery: *checkpointEvery,
		Probe:           cfg.tel.Probe(),
	}
	return cfg, nil
}

func run(args []string) error {
	cfg, err := parseFlags(args)
	if err != nil {
		return err
	}
	if cfg.smoke {
		return runSmoke(cfg.opts, cfg.tel)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	svc := service.New(cfg.opts)
	srv := &http.Server{Addr: cfg.addr, Handler: svc.Handler()}
	ln, err := net.Listen("tcp", cfg.addr)
	if err != nil {
		return err
	}
	fmt.Printf("wrsncsad: listening on %s (queue %d, workers %d)\n", ln.Addr(), svc.QueueDepth(), svc.Workers())

	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()

	select {
	case err := <-serveErr:
		return err
	case <-ctx.Done():
	}
	fmt.Println("wrsncsad: draining (intake closed, finishing queued and in-flight jobs)")

	drainCtx, cancel := context.WithTimeout(context.Background(), cfg.drainTimeout)
	defer cancel()
	drainErr := svc.Shutdown(drainCtx)
	if errors.Is(drainErr, context.DeadlineExceeded) {
		if cfg.opts.CheckpointEvery > 0 {
			fmt.Println("wrsncsad: drain budget exhausted; in-flight jobs parked at live checkpoints (restart with the same -persist-dir to resume)")
		} else {
			fmt.Println("wrsncsad: drain budget exhausted; in-flight jobs canceled")
		}
		drainErr = nil
	}
	if err := srv.Shutdown(drainCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		_ = srv.Close()
	}
	if err := cfg.tel.Export(); err != nil {
		return err
	}
	fmt.Println("wrsncsad: drained; bye")
	return drainErr
}

// runSmoke is the self-test behind `make verify-daemon`: it serves on a
// loopback port, pushes a mixed batch of jobs through the real HTTP
// path, and fails unless every digest is byte-identical to the
// in-process library run of the same spec, the stream terminates, and
// the drain completes.
func runSmoke(opts service.Options, tel cliexport.Telemetry) error {
	svc := service.New(opts)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	srv := &http.Server{Handler: svc.Handler()}
	go func() { _ = srv.Serve(ln) }()
	defer func() { _ = srv.Close() }()

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	c := client.New("http://" + ln.Addr().String())
	fmt.Printf("wrsncsad: smoke test against %s (workers %d)\n", ln.Addr(), svc.Workers())

	specs := []jobspec.Spec{
		smokeSpec(jobspec.KindAttack, 42),
		smokeSpec(jobspec.KindLegit, 42),
		smokeSpec(jobspec.KindAttack, 7),
		smokeSpec(jobspec.KindFleet, 7),
	}
	ids := make([]string, len(specs))
	for i, spec := range specs {
		st, err := c.SubmitWait(ctx, spec)
		if err != nil {
			return fmt.Errorf("smoke: submit %d: %w", i, err)
		}
		ids[i] = st.ID
	}
	frames := 0
	if err := c.Stream(ctx, ids[0], 20*time.Millisecond, func(client.StreamFrame) error {
		frames++
		return nil
	}); err != nil {
		return fmt.Errorf("smoke: stream: %w", err)
	}
	for i, spec := range specs {
		st, err := c.Wait(ctx, ids[i], 25*time.Millisecond)
		if err != nil {
			return fmt.Errorf("smoke: wait %d: %w", i, err)
		}
		if st.State != service.StateDone {
			return fmt.Errorf("smoke: job %d ended %s: %+v", i, st.State, st.Error)
		}
		res, err := jobspec.Run(ctx, spec, obs.Nop())
		if err != nil {
			return fmt.Errorf("smoke: library run %d: %w", i, err)
		}
		want, err := res.Digest()
		if err != nil {
			return err
		}
		if st.Digest != want {
			return fmt.Errorf("smoke: job %d digest %s != library %s — DETERMINISM BROKEN", i, st.Digest, want)
		}
		fmt.Printf("wrsncsad: smoke job %d (%s): digest %s ok\n", i, spec.Kind, st.Digest[:12])
	}
	drainCtx, cancel2 := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel2()
	if err := svc.Shutdown(drainCtx); err != nil {
		return fmt.Errorf("smoke: drain: %w", err)
	}
	if err := tel.Export(); err != nil {
		return err
	}
	fmt.Printf("wrsncsad: smoke ok (%d jobs, %d stream frames, drain clean)\n", len(specs), frames)
	return nil
}

// smokeSpec is a small, fast campaign (seconds of wall clock for the
// whole batch) that still exercises the attack planner and detectors.
func smokeSpec(kind string, seed uint64) jobspec.Spec {
	s := jobspec.Default(seed, 60)
	s.Kind = kind
	s.Campaign.HorizonSec = 2 * 86400
	if kind == jobspec.KindFleet {
		s.Chargers = 2
	}
	return s
}
