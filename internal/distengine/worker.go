package distengine

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"

	"github.com/reprolab/wrsn-csa/internal/experiments/engine"
	"github.com/reprolab/wrsn-csa/internal/jobspec"
	"github.com/reprolab/wrsn-csa/internal/obs"
)

// Serve runs the worker side of one connection: hello handshake, then a
// loop accepting job frames and answering each with exactly one result
// frame — outcome, error, panic (recovered, with stack), or a
// cancellation ack. Jobs run concurrently (the coordinator leases one
// job per shard, but the protocol does not depend on it); a cancel frame
// aborts the identified job's context, and the job still answers — the
// ack is what lets the coordinator distinguish "worker honored the
// cancel" from "worker is wedged". Serve returns when the peer
// disconnects, a shutdown frame arrives (after in-flight jobs drain), or
// ctx is canceled.
func Serve(ctx context.Context, conn *streamConn, probe obs.Probe) error {
	if err := conn.send(frame{Type: frameHello, Proto: ProtoVersion}); err != nil {
		return err
	}
	probe = obs.Or(probe)

	// A canceled worker context must unblock the recv loop: close the
	// connection under it.
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	go func() {
		<-ctx.Done()
		conn.close()
	}()

	var (
		mu      sync.Mutex
		running = make(map[int64]context.CancelFunc)
		wg      sync.WaitGroup
	)
	cancelAll := func() {
		mu.Lock()
		defer mu.Unlock()
		for _, c := range running {
			c()
		}
	}

	for {
		f, err := conn.recv()
		if err != nil {
			cancelAll()
			wg.Wait()
			if ctx.Err() != nil || errors.Is(err, io.EOF) {
				// Deliberate teardown (worker ctx, or the coordinator
				// closing the stream), not a wire fault.
				return nil
			}
			return err
		}
		switch f.Type {
		case frameJob:
			spec, derr := jobSpec(f)
			if derr != nil {
				if serr := conn.send(frame{
					Type: frameResult, ID: f.ID,
					ErrKind: errKindError, ErrMsg: derr.Error(),
				}); serr != nil {
					cancelAll()
					wg.Wait()
					return serr
				}
				continue
			}
			jctx, jcancel := context.WithCancel(ctx)
			mu.Lock()
			running[f.ID] = jcancel
			mu.Unlock()
			wg.Add(1)
			go func(id int64, spec jobspec.Spec) {
				defer wg.Done()
				defer func() {
					mu.Lock()
					delete(running, id)
					mu.Unlock()
					jcancel()
				}()
				res := runWorkerJob(jctx, spec, probe)
				res.ID = id
				// A send failure here means the connection is gone; the
				// recv loop is about to see the same error and tear down.
				_ = conn.send(res)
			}(f.ID, spec)
		case frameCancel:
			mu.Lock()
			if c, ok := running[f.ID]; ok {
				c()
			}
			mu.Unlock()
		case frameShutdown:
			wg.Wait()
			return nil
		default:
			cancelAll()
			wg.Wait()
			return fmt.Errorf("distengine: worker: unexpected %q frame", f.Type)
		}
	}
}

// jobSpec decodes a job frame's spec and attaches the frame's snapshot
// section. A spec JSON that carries a snapshot itself is refused: the
// snapshot crosses in one place, the section.
func jobSpec(f frame) (jobspec.Spec, error) {
	spec, err := jobspec.Decode(f.Spec)
	if err != nil {
		return jobspec.Spec{}, err
	}
	if spec.Snapshot != nil {
		return jobspec.Spec{}, errors.New("distengine: job spec JSON carries a snapshot; protocol 4 sends it as the frame's snapshot section")
	}
	spec.Snapshot = f.Snapshot
	return spec, nil
}

// runWorkerJob executes one spec through engine.Do and renders the
// answer frame. A panic anywhere in the run — world build, campaign,
// encoding — comes back as a panic-kind result, so one bad job never
// kills the worker process (and with it every other job leased to this
// shard).
func runWorkerJob(ctx context.Context, spec jobspec.Spec, probe obs.Probe) frame {
	var payload []byte
	r, err := engine.Do(ctx, 0, 0, probe, func(ctx context.Context, _ int) (string, error) {
		res, err := jobspec.Run(ctx, spec, probe)
		if err != nil {
			return "", err
		}
		var dg string
		payload, dg, err = encodeResult(res)
		return dg, err
	})
	res := frame{Type: frameResult, ElapsedSec: r.Elapsed.Seconds()}
	var pe *engine.PanicError
	switch {
	case errors.As(err, &pe):
		res.ErrKind, res.ErrMsg, res.Stack = errKindPanic, fmt.Sprint(pe.Value), string(pe.Stack)
	case err != nil && ctx.Err() != nil:
		res.ErrKind, res.ErrMsg = errKindCanceled, err.Error()
	case err != nil:
		res.ErrKind, res.ErrMsg = errKindError, err.Error()
	default:
		res.Outcome, res.Digest = payload, r.Value
	}
	return res
}

// ServeStdio serves one worker session over a byte stream pair — the
// exec transport. cmd/wrsnworker calls this with os.Stdin/os.Stdout.
func ServeStdio(ctx context.Context, r io.Reader, w io.Writer, probe obs.Probe) error {
	var closer io.Closer
	if c, ok := r.(io.Closer); ok {
		closer = c
	}
	return Serve(ctx, newStreamConn(r, w, closer), probe)
}

// ListenAndServe accepts coordinator connections on ln and serves each
// (the TCP transport, framed like exec mode) until ctx is canceled or
// the listener fails. Connections are served concurrently, so one
// listening worker can back several coordinators or reconnects.
func ListenAndServe(ctx context.Context, ln net.Listener, probe obs.Probe) error {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	go func() {
		<-ctx.Done()
		ln.Close()
	}()
	var wg sync.WaitGroup
	defer wg.Wait()
	for {
		c, err := ln.Accept()
		if err != nil {
			if ctx.Err() != nil {
				return nil
			}
			return fmt.Errorf("distengine: accept: %w", err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Serve's own teardown goroutine closes the conn on ctx.
			_ = Serve(ctx, newStreamConn(c, c, c), probe)
		}()
	}
}
