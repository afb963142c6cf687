// Package distengine extends the in-process experiment engine across
// worker processes: a coordinator-side Pool shards serializable campaign
// jobs (jobspec.Spec) over workers it either spawned itself (exec mode,
// over the child's stdin/stdout) or dialed over TCP — both speaking the
// same length-prefixed JSON frames — while preserving the engine
// package's contracts exactly: deterministic order-preserving merge,
// lowest-index-error fail-fast, keep-going aggregation, per-job
// timeout/retry, panic capture, and context cancellation that tears the
// workers down.
//
// The preservation is by construction, not re-implementation: Pool.Run
// delegates scheduling, ordering and error semantics to
// engine.MapTimedOpts with Pool.Submit as the job function, so the
// distributed path and the in-process pool share one contract
// implementation. What distengine adds underneath is worker leasing,
// crash failover (a job in flight on a dying worker is re-sent to a
// surviving shard; specs derive all randomness from their own seeds, so
// the re-run is bit-identical), and a wire-integrity check: every result
// crosses the wire as its canonical JSON (internal/digest) with the
// SHA-256 of those bytes, and the coordinator decodes the outcome and
// re-digests it — a lossy transport or decoder fails loudly instead of
// silently shifting results.
package distengine

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"sync"
)

// ProtoVersion is the wire protocol version exchanged in the hello
// handshake; coordinator and worker must agree exactly. Version 2 carries
// outcomes as canonical JSON and frames TCP like exec mode.
const ProtoVersion = 2

// maxFrame bounds one frame's encoded size.
// Outcomes with full session records reach megabytes; snapshots of large
// worlds more. 256 MiB is far above any real payload while still
// rejecting a corrupt length prefix before it turns into an allocation.
const maxFrame = 256 << 20

// Frame types. Every message in either direction is one frame.
const (
	// frameHello is the worker's first message: its protocol version.
	frameHello = "hello"
	// frameJob carries one job (id + spec) coordinator→worker.
	frameJob = "job"
	// frameCancel asks the worker to abandon the identified job; the
	// worker still answers it with a result frame (kind "canceled").
	frameCancel = "cancel"
	// frameResult is the worker's answer to a job: outcome or error.
	frameResult = "result"
	// frameShutdown asks the worker to exit cleanly.
	frameShutdown = "shutdown"
)

// Remote error kinds carried in result frames.
const (
	// errKindError is an ordinary job failure (jobspec.Run returned err).
	errKindError = "error"
	// errKindPanic is a worker-side panic, recovered with its stack.
	errKindPanic = "panic"
	// errKindCanceled acknowledges a frameCancel (or a dying worker
	// context); the coordinator maps it back to its own ctx error.
	errKindCanceled = "canceled"
)

// frame is the single wire message shape, fields used per type. JSON
// keeps the wire inspectable; the outcome inside a result frame is the
// canonical JSON of internal/digest (see result.go), which carries the
// non-finite floats encoding/json refuses.
type frame struct {
	Type string `json:"type"`
	// Proto is the protocol version (hello frames).
	Proto int `json:"proto,omitempty"`
	// ID identifies a job (job, cancel, result frames). IDs are unique
	// per coordinator, so a late result can never be mistaken for the
	// answer to a different job.
	ID int64 `json:"id,omitempty"`
	// Spec is the encoded jobspec.Spec (job frames).
	Spec json.RawMessage `json:"spec,omitempty"`
	// Outcome is the result's canonical JSON (result frames): a
	// campaign.FleetOutcome for fleet specs, a campaign.Outcome otherwise.
	Outcome []byte `json:"outcome,omitempty"`
	// Digest is the SHA-256 of Outcome; the coordinator re-digests the
	// decoded outcome and compares.
	Digest string `json:"digest,omitempty"`
	// ElapsedSec is the worker-side wall clock of the job.
	ElapsedSec float64 `json:"elapsed_sec,omitempty"`
	// ErrKind/ErrMsg/Stack report a failed job (result frames).
	ErrKind string `json:"err_kind,omitempty"`
	ErrMsg  string `json:"err_msg,omitempty"`
	Stack   string `json:"stack,omitempty"`
}

// wireConn is one framed, bidirectional connection. send is safe for
// concurrent use; recv must be called from a single goroutine.
type wireConn interface {
	send(frame) error
	recv() (frame, error)
	close() error
}

// streamConn frames messages with a 4-byte big-endian length prefix over
// any byte stream — a child process's stdin/stdout in exec mode, a TCP
// connection in TCP mode — so message boundaries survive arbitrary
// buffering.
type streamConn struct {
	r      io.Reader
	closer io.Closer

	mu sync.Mutex
	w  io.Writer
}

// newStreamConn wraps a read/write pair with length-prefixed framing.
// closer may be nil (stdio); a net.Conn is all three.
func newStreamConn(r io.Reader, w io.Writer, closer io.Closer) *streamConn {
	return &streamConn{r: bufio.NewReader(r), w: w, closer: closer}
}

func (c *streamConn) send(f frame) error {
	body, err := json.Marshal(f)
	if err != nil {
		return fmt.Errorf("distengine: encode %s frame: %w", f.Type, err)
	}
	buf := make([]byte, 4+len(body))
	binary.BigEndian.PutUint32(buf, uint32(len(body)))
	copy(buf[4:], body)
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, err := c.w.Write(buf); err != nil {
		return fmt.Errorf("distengine: send %s frame: %w", f.Type, err)
	}
	return nil
}

func (c *streamConn) recv() (frame, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(c.r, hdr[:]); err != nil {
		return frame{}, fmt.Errorf("distengine: recv: %w", err)
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n > maxFrame {
		return frame{}, fmt.Errorf("distengine: recv: frame length %d exceeds %d", n, maxFrame)
	}
	body, err := readBody(c.r, int(n))
	if err != nil {
		return frame{}, fmt.Errorf("distengine: recv body: %w", err)
	}
	var f frame
	if err := json.Unmarshal(body, &f); err != nil {
		return frame{}, fmt.Errorf("distengine: decode frame: %w", err)
	}
	return f, nil
}

// readBody reads exactly n bytes. The buffer grows as data arrives, from
// at most 1 MiB, instead of trusting n with one allocation, so a corrupt
// length costs only the bytes actually sent.
func readBody(r io.Reader, n int) ([]byte, error) {
	body := make([]byte, min(n, 1<<20))
	for off := 0; ; {
		m, err := io.ReadFull(r, body[off:])
		off += m
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		if err != nil {
			return nil, err
		}
		if off == n {
			return body, nil
		}
		body = append(body, make([]byte, min(n-off, off))...)
	}
}

func (c *streamConn) close() error {
	if c.closer == nil {
		return nil
	}
	return c.closer.Close()
}

// handshake completes the coordinator side of the hello exchange.
func handshake(c wireConn) error {
	f, err := c.recv()
	if err != nil {
		return fmt.Errorf("distengine: handshake: %w", err)
	}
	if f.Type != frameHello {
		return fmt.Errorf("distengine: handshake: got %q frame, want hello", f.Type)
	}
	if f.Proto != ProtoVersion {
		return fmt.Errorf("distengine: handshake: worker speaks protocol %d, coordinator %d", f.Proto, ProtoVersion)
	}
	return nil
}
