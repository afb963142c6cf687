package distengine

// Contract unit tests against scripted in-memory workers: each test
// wires the coordinator Pool to goroutine "workers" speaking the real
// wire format over net.Pipe, so engine-contract preservation (fail-fast
// lowest index, keep-going aggregation, cancellation, timeouts), crash
// failover, wedged-worker handling, and the wire-integrity check are
// all exercised without spawning processes or running campaigns.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/reprolab/wrsn-csa/internal/campaign"
	"github.com/reprolab/wrsn-csa/internal/experiments/engine"
	"github.com/reprolab/wrsn-csa/internal/jobspec"
)

// scriptedWorker is one fake worker: handle sees every job and cancel
// frame and replies through reply (Type/ID are filled in for it;
// replying nil frames is modeled by simply not calling reply). die
// severs the connection from the worker side, simulating a crash.
type scriptedWorker struct {
	conn wireConn // coordinator side
	die  func()
}

// startScriptedWorker runs handle over an in-memory pipe and returns
// the coordinator-side connection, already past the hello handshake.
func startScriptedWorker(t *testing.T, handle func(f frame, reply func(frame))) *scriptedWorker {
	t.Helper()
	cside, wside := net.Pipe()
	coord, worker := newStreamConn(cside, cside, cside), newStreamConn(wside, wside, wside)
	go func() {
		if err := worker.send(frame{Type: frameHello, Proto: ProtoVersion}); err != nil {
			return
		}
		for {
			f, err := worker.recv()
			if err != nil {
				return
			}
			switch f.Type {
			case frameJob, frameCancel:
				go handle(f, func(res frame) {
					res.Type = frameResult
					if res.ID == 0 {
						res.ID = f.ID
					}
					_ = worker.send(res)
				})
			case frameShutdown:
				worker.close()
				return
			}
		}
	}()
	if err := handshake(coord); err != nil {
		t.Fatalf("scripted handshake: %v", err)
	}
	return &scriptedWorker{conn: coord, die: func() { _ = wside.Close() }}
}

// scriptedPool builds a Pool over scripted workers.
func scriptedPool(t *testing.T, crashRetries int, handlers ...func(frame, func(frame))) *Pool {
	t.Helper()
	shards := make([]*shard, len(handlers))
	for i, h := range handlers {
		w := startScriptedWorker(t, h)
		conn := w.conn
		shards[i] = &shard{idx: i, conn: conn, kill: func() { _ = conn.close() }}
	}
	p := newPool(shards, crashRetries)
	t.Cleanup(p.Close)
	return p
}

// markedSpec tags a spec with its job index via the campaign seed, so a
// scripted worker can decide per-job behavior and echo the index back.
func markedSpec(i int) jobspec.Spec {
	s := jobspec.Default(uint64(i), 10)
	return s
}

func specIndex(t *testing.T, f frame) int {
	t.Helper()
	s, err := jobspec.Decode(f.Spec)
	if err != nil {
		t.Errorf("scripted worker: decode spec: %v", err)
		return -1
	}
	return int(s.Campaign.Seed)
}

// okReply renders a success result whose Outcome.KeyDead echoes the job
// index, so merge-order assertions can read it back.
func okReply(t *testing.T, idx int) frame {
	t.Helper()
	payload, dg, err := encodeResult(&jobspec.Result{Outcome: &campaign.Outcome{KeyDead: idx}})
	if err != nil {
		t.Errorf("encode scripted result: %v", err)
	}
	return frame{Outcome: payload, Digest: dg}
}

// ackCancel answers a cancel frame the way a live worker does, so
// engine-driven cancellations (fail-fast, timeouts) never stall a test
// on the wedged-worker grace period. Reports whether f was a cancel.
func ackCancel(f frame, reply func(frame)) bool {
	if f.Type != frameCancel {
		return false
	}
	reply(frame{ErrKind: errKindCanceled, ErrMsg: "canceled"})
	return true
}

// echoWorker answers every job with a success echoing its index.
func echoWorker(t *testing.T) func(frame, func(frame)) {
	return func(f frame, reply func(frame)) {
		if ackCancel(f, reply) || f.Type != frameJob {
			return
		}
		reply(okReply(t, specIndex(t, f)))
	}
}

func runSpecs(p *Pool, n int, opts Options) ([]engine.Result[*jobspec.Result], error) {
	specs := make([]jobspec.Spec, n)
	for i := range specs {
		specs[i] = markedSpec(i)
	}
	return p.Run(context.Background(), specs, opts)
}

// TestRunPreservesOrder: results land at their spec's index no matter
// which shard served them or in what order they finished.
func TestRunPreservesOrder(t *testing.T) {
	p := scriptedPool(t, 0, echoWorker(t), echoWorker(t), echoWorker(t))
	results, err := runSpecs(p, 20, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range results {
		if r.Value == nil || r.Value.Outcome == nil {
			t.Fatalf("result %d missing", i)
		}
		if got := r.Value.Outcome.KeyDead; got != i {
			t.Errorf("result at index %d came from job %d; merge order broken", i, got)
		}
	}
}

// failOn makes a worker that errors on the given job indices and
// succeeds otherwise.
func failOn(t *testing.T, bad map[int]bool) func(frame, func(frame)) {
	return func(f frame, reply func(frame)) {
		if ackCancel(f, reply) || f.Type != frameJob {
			return
		}
		idx := specIndex(t, f)
		if bad[idx] {
			reply(frame{ErrKind: errKindError, ErrMsg: fmt.Sprintf("scripted failure %d", idx)})
			return
		}
		reply(okReply(t, idx))
	}
}

// TestRunFailFastLowestIndex: with KeepGoing unset, the sweep's error
// is the lowest-indexed failure — the engine's classic contract,
// reaching through Submit to a remote error.
func TestRunFailFastLowestIndex(t *testing.T) {
	bad := map[int]bool{0: true, 5: true}
	p := scriptedPool(t, 0, failOn(t, bad), failOn(t, bad))
	_, err := runSpecs(p, 8, Options{})
	if err == nil {
		t.Fatal("sweep with failing jobs returned nil error")
	}
	var re *RemoteError
	if !errors.As(err, &re) {
		t.Fatalf("err = %v, want a *RemoteError", err)
	}
	if !strings.Contains(re.Msg, "scripted failure 0") {
		t.Errorf("fail-fast surfaced %q, want the job-0 failure", re.Msg)
	}
}

// TestRunKeepGoingAggregates: KeepGoing runs everything, returns the
// partial results, and joins one index-tagged JobError per failure.
func TestRunKeepGoingAggregates(t *testing.T) {
	bad := map[int]bool{2: true, 6: true}
	p := scriptedPool(t, 0, failOn(t, bad), failOn(t, bad))
	results, err := runSpecs(p, 8, Options{Job: engine.Options{KeepGoing: true}})
	if err == nil {
		t.Fatal("keep-going sweep with failures returned nil error")
	}
	for i, r := range results {
		if bad[i] {
			if r.Value != nil {
				t.Errorf("failed job %d has a value", i)
			}
			continue
		}
		if r.Value == nil || r.Value.Outcome.KeyDead != i {
			t.Errorf("job %d result missing or misplaced despite keep-going", i)
		}
	}
	joined, ok := err.(interface{ Unwrap() []error })
	if !ok {
		t.Fatalf("aggregate error %v is not an errors.Join of job failures", err)
	}
	attributed := make(map[int]bool)
	for _, e := range joined.Unwrap() {
		var je *engine.JobError
		if errors.As(e, &je) {
			attributed[je.Job] = true
		}
	}
	for idx := range bad {
		if !attributed[idx] {
			t.Errorf("aggregate error %v does not attribute a JobError to job %d", err, idx)
		}
	}
}

// TestRemotePanicSurfacesWithStack: a worker-side panic arrives as a
// *RemoteError of panic kind carrying the remote stack.
func TestRemotePanicSurfacesWithStack(t *testing.T) {
	p := scriptedPool(t, 0, func(f frame, reply func(frame)) {
		if f.Type == frameJob {
			reply(frame{ErrKind: errKindPanic, ErrMsg: "boom", Stack: "goroutine 1 [running]:\nworker.crash()"})
		}
	})
	_, err := p.Submit(context.Background(), markedSpec(0))
	var re *RemoteError
	if !errors.As(err, &re) {
		t.Fatalf("err = %v, want *RemoteError", err)
	}
	if re.Kind != errKindPanic || !strings.Contains(re.Error(), "worker.crash()") {
		t.Errorf("panic error %q lost its kind or stack", re.Error())
	}
}

// TestSubmitCancelAcked: canceling the submit context sends a cancel
// frame; once the worker acks it the shard goes back into rotation and
// serves the next job normally.
func TestSubmitCancelAcked(t *testing.T) {
	jobSeen := make(chan struct{}, 1)
	var held atomic.Bool
	p := scriptedPool(t, 0, func(f frame, reply func(frame)) {
		if ackCancel(f, reply) || f.Type != frameJob {
			return
		}
		if held.CompareAndSwap(false, true) {
			jobSeen <- struct{}{} // hold the first job until canceled
			return
		}
		reply(okReply(t, specIndex(t, f)))
	})
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, err := p.Submit(ctx, markedSpec(1))
		errc <- err
	}()
	<-jobSeen
	cancel()
	if err := <-errc; !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if got := p.Alive(); got != 1 {
		t.Fatalf("Alive() = %d after acked cancel, want 1", got)
	}
	// The shard must be reusable: a fresh submit on the same worker
	// completes.
	res, err := p.Submit(context.Background(), markedSpec(2))
	if err != nil {
		t.Fatalf("submit after acked cancel: %v", err)
	}
	if res.Outcome == nil || res.Outcome.KeyDead != 2 {
		t.Errorf("post-cancel result = %+v, want the job-2 echo", res.Outcome)
	}
}

// TestSubmitWedgedWorkerKilled: a worker that ignores cancel frames is
// retired after the grace period instead of being leased out again.
func TestSubmitWedgedWorkerKilled(t *testing.T) {
	jobSeen := make(chan struct{}, 1)
	p := scriptedPool(t, 0, func(f frame, reply func(frame)) {
		if f.Type == frameJob {
			jobSeen <- struct{}{}
		}
		// cancels are ignored: the wedge.
	})
	p.cancelGrace = 50 * time.Millisecond
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, err := p.Submit(ctx, markedSpec(1))
		errc <- err
	}()
	<-jobSeen
	cancel()
	if err := <-errc; !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	for i := 0; p.Alive() != 0 && i < 100; i++ {
		time.Sleep(5 * time.Millisecond)
	}
	if got := p.Alive(); got != 0 {
		t.Fatalf("Alive() = %d, want 0: the wedged worker was not retired", got)
	}
	// With no live workers left, submits fail loudly instead of hanging.
	_, err := p.Submit(context.Background(), markedSpec(2))
	var lost *WorkerLostError
	if !errors.As(err, &lost) || lost.Shard != -1 {
		t.Fatalf("err = %v, want WorkerLostError{Shard: -1}", err)
	}
}

// TestCrashFailover: a worker dying mid-job gets the job re-sent to a
// surviving shard, invisibly to the caller.
func TestCrashFailover(t *testing.T) {
	var crasher *scriptedWorker
	crashed := make(chan struct{})
	crasherHandler := func(f frame, reply func(frame)) {
		if f.Type == frameJob {
			crasher.die()
			close(crashed)
		}
	}
	healthy := echoWorker(t)

	shards := make([]*shard, 2)
	crasher = startScriptedWorker(t, crasherHandler)
	cconn := crasher.conn
	shards[0] = &shard{idx: 0, conn: cconn, kill: func() { _ = cconn.close() }}
	w := startScriptedWorker(t, healthy)
	hconn := w.conn
	shards[1] = &shard{idx: 1, conn: hconn, kill: func() { _ = hconn.close() }}
	p := newPool(shards, DefaultCrashRetries)
	t.Cleanup(p.Close)

	// Two jobs: whichever shard order the free list hands out, the
	// crasher dies on its first job and that job must fail over.
	results, err := runSpecs(p, 2, Options{})
	if err != nil {
		t.Fatalf("run with crash failover: %v", err)
	}
	<-crashed
	for i, r := range results {
		if r.Value == nil || r.Value.Outcome.KeyDead != i {
			t.Errorf("job %d lost or misplaced after failover", i)
		}
	}
	if got := p.Alive(); got != 1 {
		t.Errorf("Alive() = %d, want 1", got)
	}
}

// TestCrashRetriesExhausted: with no failover budget, a dying worker
// surfaces as a WorkerLostError naming the shard.
func TestCrashRetriesExhausted(t *testing.T) {
	var w *scriptedWorker
	w = startScriptedWorker(t, func(f frame, reply func(frame)) {
		if f.Type == frameJob {
			w.die()
		}
	})
	conn := w.conn
	p := newPool([]*shard{{idx: 0, conn: conn, kill: func() { _ = conn.close() }}}, 0)
	t.Cleanup(p.Close)
	_, err := p.Submit(context.Background(), markedSpec(0))
	var lost *WorkerLostError
	if !errors.As(err, &lost) {
		t.Fatalf("err = %v, want *WorkerLostError", err)
	}
	if lost.Shard != 0 || lost.Attempts != 1 {
		t.Errorf("WorkerLostError = %+v, want shard 0, 1 attempt", lost)
	}
}

// TestWireIntegrityMismatch: a result whose decoded digest disagrees
// with the worker's claimed digest fails the job loudly.
func TestWireIntegrityMismatch(t *testing.T) {
	p := scriptedPool(t, 0, func(f frame, reply func(frame)) {
		if f.Type != frameJob {
			return
		}
		res := okReply(t, 7)
		res.Digest = strings.Repeat("0", 64) // claim a different outcome
		reply(res)
	})
	_, err := p.Submit(context.Background(), markedSpec(0))
	if err == nil || !strings.Contains(err.Error(), "wire integrity") {
		t.Fatalf("err = %v, want a wire-integrity failure", err)
	}
}

// TestRunJobTimeout: engine.Options.Timeout bounds a job even when the
// worker sits on it; the worker gets a cancel frame it can ack.
func TestRunJobTimeout(t *testing.T) {
	var canceled atomic.Bool
	p := scriptedPool(t, 0, func(f frame, reply func(frame)) {
		switch f.Type {
		case frameJob:
			// never answer
		case frameCancel:
			canceled.Store(true)
			reply(frame{ErrKind: errKindCanceled, ErrMsg: "canceled"})
		}
	})
	_, err := runSpecs(p, 1, Options{Job: engine.Options{Timeout: 50 * time.Millisecond}})
	if err == nil || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want a deadline-exceeded timeout", err)
	}
	for i := 0; !canceled.Load() && i < 100; i++ {
		time.Sleep(5 * time.Millisecond)
	}
	if !canceled.Load() {
		t.Error("timed-out job never sent the worker a cancel frame")
	}
}

// TestHandshakeRejectsVersionMismatch: a worker speaking another
// protocol version fails pool construction, not the first job.
func TestHandshakeRejectsVersionMismatch(t *testing.T) {
	cside, wside := net.Pipe()
	defer cside.Close()
	go func() {
		w := newStreamConn(wside, wside, wside)
		_ = w.send(frame{Type: frameHello, Proto: ProtoVersion + 1})
	}()
	err := handshake(newStreamConn(cside, cside, cside))
	if err == nil || !strings.Contains(err.Error(), "protocol") {
		t.Fatalf("err = %v, want a protocol-version mismatch", err)
	}
}

// TestHandshakeRejectsNonHello: anything but a hello first is refused.
func TestHandshakeRejectsNonHello(t *testing.T) {
	cside, wside := net.Pipe()
	defer cside.Close()
	go func() {
		w := newStreamConn(wside, wside, wside)
		_ = w.send(frame{Type: frameResult, ID: 1})
	}()
	err := handshake(newStreamConn(cside, cside, cside))
	if err == nil || !strings.Contains(err.Error(), "hello") {
		t.Fatalf("err = %v, want a not-hello rejection", err)
	}
}

// TestStreamConnRoundTrip: the length-prefixed transport preserves
// frames byte for byte, including binary outcome payloads.
func TestStreamConnRoundTrip(t *testing.T) {
	pr, pw := io.Pipe()
	a := newStreamConn(nil, pw, nil)
	b := newStreamConn(pr, nil, nil)
	sent := frame{Type: frameResult, ID: 42, Outcome: []byte{0, 1, 2, 0xff, '\n', 0x80}, Digest: "abc", ElapsedSec: 1.5}
	go func() {
		if err := a.send(sent); err != nil {
			t.Errorf("send: %v", err)
		}
	}()
	got, err := b.recv()
	if err != nil {
		t.Fatal(err)
	}
	if got.Type != sent.Type || got.ID != sent.ID || !bytes.Equal(got.Outcome, sent.Outcome) ||
		got.Digest != sent.Digest || got.ElapsedSec != sent.ElapsedSec {
		t.Errorf("round trip mangled the frame: %+v != %+v", got, sent)
	}
}

// TestStreamConnOversizeFrame: a corrupt length prefix is rejected
// before it becomes an allocation.
func TestStreamConnOversizeFrame(t *testing.T) {
	hdr := []byte{0xff, 0xff, 0xff, 0xff}
	c := newStreamConn(bytes.NewReader(hdr), nil, nil)
	if _, err := c.recv(); err == nil || !strings.Contains(err.Error(), "exceeds") {
		t.Fatalf("err = %v, want an oversize-frame rejection", err)
	}
}

// TestServeAnswersBadSpec: a job frame carrying undecodable spec JSON
// gets an error result, not a dead worker.
func TestServeAnswersBadSpec(t *testing.T) {
	cside, wside := net.Pipe()
	sctx, scancel := context.WithCancel(context.Background())
	defer scancel()
	go func() { _ = Serve(sctx, newStreamConn(wside, wside, wside), nil) }()
	coord := newStreamConn(cside, cside, cside)
	defer coord.close()
	if err := handshake(coord); err != nil {
		t.Fatal(err)
	}
	if err := coord.send(frame{Type: frameJob, ID: 9, Spec: []byte(`{"kind": [42]}`)}); err != nil {
		t.Fatal(err)
	}
	res, err := coord.recv()
	if err != nil {
		t.Fatal(err)
	}
	if res.Type != frameResult || res.ID != 9 || res.ErrKind != errKindError {
		t.Fatalf("bad spec answered with %+v, want an error result for job 9", res)
	}
}

// TestServeRejectsUnknownFrame: an off-protocol frame tears the session
// down with a named error rather than being silently ignored.
func TestServeRejectsUnknownFrame(t *testing.T) {
	cside, wside := net.Pipe()
	served := make(chan error, 1)
	go func() { served <- Serve(context.Background(), newStreamConn(wside, wside, wside), nil) }()
	coord := newStreamConn(cside, cside, cside)
	defer coord.close()
	if err := handshake(coord); err != nil {
		t.Fatal(err)
	}
	if err := coord.send(frame{Type: "gossip"}); err != nil {
		t.Fatal(err)
	}
	err := <-served
	if err == nil || !strings.Contains(err.Error(), "gossip") {
		t.Fatalf("Serve returned %v, want an unexpected-frame error naming the type", err)
	}
}
