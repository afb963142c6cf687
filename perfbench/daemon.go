package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"time"

	"github.com/reprolab/wrsn-csa/client"
	"github.com/reprolab/wrsn-csa/internal/jobspec"
	"github.com/reprolab/wrsn-csa/internal/service"
)

// Shape of the daemon workload. The offered rate is below half of what
// one daemon worker at GOMAXPROCS=1 completes on a 2-vCPU host (about
// 40 ops/s).
const (
	daemonRate      = 16.0 // offered ops per second
	daemonDistinct  = 240  // distinct n=200 legit specs the op list cycles through
	daemonWarm      = 8
	daemonSetupReps = 15
	daemonConns     = 2 // generator connections, one sender goroutine each
	daemonQueue     = 64
)

func daemonSpecs(seed uint64) []jobspec.Spec {
	var specs []jobspec.Spec
	for _, s := range specSeeds(seed, "daemon", daemonDistinct) {
		sp := jobspec.Default(s, 200)
		sp.Campaign.Shards = 1
		specs = append(specs, sp)
	}
	return specs
}

// daemon is one wrsncsad process on a loopback port.
type daemon struct {
	cmd     *exec.Cmd
	base    string
	drained chan struct{} // closed once its stdout is read to the end
}

// startDaemon starts wrsncsad with one worker and returns once its
// /v1/healthz answers 200.
func startDaemon(ctx context.Context, bin string, hc *http.Client) (*daemon, error) {
	cmd := exec.Command(filepath.Join(bin, "wrsncsad"),
		"-addr", "127.0.0.1:0", "-workers", "1", "-queue", fmt.Sprint(daemonQueue), "-drain-timeout", "10s")
	cmd.Env = append(os.Environ(), fmt.Sprintf("GOMAXPROCS=%d", gomaxprocs))
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	d := &daemon{cmd: cmd, drained: make(chan struct{})}
	r := bufio.NewReader(stdout)
	line, err := r.ReadString('\n')
	go func() {
		_, _ = io.Copy(io.Discard, r)
		close(d.drained)
	}()
	// The first line reads "wrsncsad: listening on ADDR (queue …)".
	_, addr, ok := strings.Cut(line, "listening on ")
	addr, _, _ = strings.Cut(addr, " ")
	if err != nil || !ok || addr == "" {
		d.stop()
		return nil, fmt.Errorf("wrsncsad did not report its address (%q): %v", line, err)
	}
	d.base = "http://" + addr
	for {
		resp, err := hc.Get(d.base + "/v1/healthz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		select {
		case <-ctx.Done():
			d.stop()
			return nil, ctx.Err()
		case <-time.After(time.Millisecond):
		}
	}
}

// stop drains the daemon with SIGTERM, kills it if it lingers, and
// waits for it to exit.
func (d *daemon) stop() {
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.drained:
	case <-time.After(15 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.drained
	}
	_ = d.cmd.Wait()
}

// sent is the generator's record of one op.
type sent struct {
	due  time.Time // scheduled send time
	sent time.Time // actual send time
	rtt  time.Duration
	id   string
	err  error
}

// runDaemon: an open loop at a fixed offered rate; each op is a plain
// 14-day legit n=200 spec POSTed to a wrsncsad -workers 1 process.
func runDaemon(ctx context.Context, b *bench) error {
	specs := daemonSpecs(b.seed)
	refs, err := references(ctx, specs, b.traced())
	if err != nil {
		return err
	}
	transport := &http.Transport{MaxConnsPerHost: daemonConns, MaxIdleConnsPerHost: daemonConns, DisableCompression: true}
	defer transport.CloseIdleConnections()
	hc := &http.Client{Transport: transport, Timeout: 30 * time.Second}

	var d *daemon
	defer func() {
		if d != nil {
			d.stop()
		}
	}()
	// Set-up is daemon start until the first healthy /v1/healthz; each
	// repetition but the last is stopped outside the timing.
	for rep := 0; rep < daemonSetupReps; rep++ {
		if d != nil {
			d.stop()
		}
		t0 := time.Now()
		if d, err = startDaemon(ctx, b.bin, hc); err != nil {
			return err
		}
		b.setup = append(b.setup, time.Since(t0).Seconds())
	}
	b.use = usage{pids: []int{d.cmd.Process.Pid}}
	c := client.New(d.base).WithHTTPClient(hc)

	for i := 0; i < daemonWarm; i++ {
		st, err := c.Submit(ctx, specs[i%len(specs)])
		if err == nil {
			st, err = c.Wait(ctx, st.ID, 5*time.Millisecond)
		}
		if err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
		if st.Digest != refs[i%len(refs)].digest {
			b.mismatch("warm-up op %d: digest %s, library path %s", i, st.Digest, refs[i%len(refs)].digest)
		}
	}

	return b.measure(ctx, func(ctx context.Context, tr *tracer) (passOut, error) {
		cpu0, err := b.use.cpu()
		if err != nil {
			return passOut{}, err
		}
		sends := openLoop(ctx, c, specs, b.nops)
		if err := waitIdle(ctx, c); err != nil {
			return passOut{}, err
		}
		cpu1, err := b.use.cpu()
		if err != nil {
			return passOut{}, err
		}
		jobs, err := c.Jobs(ctx)
		if err != nil {
			return passOut{}, err
		}
		byID := make(map[string]service.JobStatus, len(jobs))
		for _, j := range jobs {
			byID[j.ID] = j
		}
		out := passOut{cpuS: cpu1 - cpu0}
		var last time.Time
		for i, s := range sends {
			tr.add("gen.late", i, -1, s.due, s.sent)
			if s.err != nil {
				var busy *client.BusyError
				var api *client.APIError
				if errors.As(s.err, &busy) || (errors.As(s.err, &api) && api.StatusCode == http.StatusServiceUnavailable) {
					b.fail(causeRejected)
				} else {
					b.fail(causeError)
				}
				continue
			}
			st := byID[s.id]
			if st.State != service.StateDone || st.FinishedAt == nil || st.StartedAt == nil {
				b.fail(causeError)
				continue
			}
			want := refs[i%len(refs)]
			if st.Digest != want.digest {
				b.fail(causeDigest)
				b.mismatch("op %d: digest %s, library path %s", i, st.Digest, want.digest)
				continue
			}
			b.ok()
			out.lat = append(out.lat, ms(st.FinishedAt.Sub(s.due)))
			if st.FinishedAt.After(last) {
				last = *st.FinishedAt
			}
			tr.add("service.submit_rtt", i, -1, s.sent, s.sent.Add(s.rtt))
			tr.add("service.queue_wait", i, -1, st.SubmittedAt, *st.StartedAt)
			tr.add("service.run", i, -1, *st.StartedAt, *st.FinishedAt)
		}
		out.wallS = last.Sub(sends[0].due).Seconds()
		if tr != nil {
			if err := jobPathProbe(b, tr, specs, refs); err != nil {
				return passOut{}, err
			}
		}
		return out, nil
	})
}

// openLoop sends n ops on a fixed schedule over daemonConns connections,
// whatever the daemon's progress: a stall delays completions, never sends.
func openLoop(ctx context.Context, c *client.Client, specs []jobspec.Spec, n int) []sent {
	start := time.Now().Add(10 * time.Millisecond)
	sends := make([]sent, n)
	var wg sync.WaitGroup
	for g := 0; g < daemonConns; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; i < n; i += daemonConns {
				due := start.Add(time.Duration(float64(i) / daemonRate * float64(time.Second)))
				if wait := time.Until(due); wait > 0 {
					time.Sleep(wait)
				}
				t0 := time.Now()
				st, err := c.Submit(ctx, specs[i%len(specs)])
				sends[i] = sent{due: due, sent: t0, rtt: time.Since(t0), id: st.ID, err: err}
			}
		}(g)
	}
	wg.Wait()
	return sends
}

// waitIdle polls /v1/healthz until nothing is queued or running.
func waitIdle(ctx context.Context, c *client.Client) error {
	for {
		h, err := c.Health(ctx)
		if err != nil {
			return err
		}
		if h.Jobs[service.StateQueued]+h.Jobs[service.StateRunning] == 0 {
			return nil
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(20 * time.Millisecond):
		}
	}
}

// jobPathProbe times, per op and outside the timed region, the codec
// layers a daemon job and a worker job pass through: the spec's JSON
// encoding (as the client sends it), its decoding and validation (as the
// server does on intake), and the outcome's canonical encoding (as the
// digest is computed). It also adds each op's campaign counts.
func jobPathProbe(b *bench, tr *tracer, specs []jobspec.Spec, refs []reference) error {
	n := float64(b.nops)
	for i := 0; i < b.nops; i++ {
		spec, ref := specs[i%len(specs)], refs[i%len(refs)]
		id := tr.begin("jobspec.encode", i, -1)
		body, err := json.Marshal(spec)
		tr.end(id)
		if err != nil {
			return err
		}
		id = tr.begin("jobspec.decode", i, -1)
		dec, err := jobspec.Decode(body)
		tr.end(id)
		if err != nil {
			return err
		}
		id = tr.begin("jobspec.validate", i, -1)
		err = dec.Validate()
		tr.end(id)
		if err != nil {
			return err
		}
		id = tr.begin("digest.canonical", i, -1)
		canon, err := ref.result.CanonicalJSON()
		tr.end(id)
		if err != nil {
			return err
		}
		b.layer["jobspec.bytes"] += float64(len(body)) / n
		b.layer["digest.bytes"] += float64(len(canon)) / n
		b.count(ref.result.Outcome)
	}
	return nil
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
