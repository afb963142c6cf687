// Package distengine extends the in-process experiment engine across
// worker processes: a coordinator-side Pool shards serializable campaign
// jobs (jobspec.Spec) over workers it either spawned itself (exec mode,
// over the child's stdin/stdout) or dialed over TCP — both speaking the
// same length-prefixed frames — while preserving the engine
// package's contracts exactly: deterministic order-preserving merge,
// every job run and the failures joined in index order, per-job timeout,
// panic capture (the worker runs each job through engine.Do), and
// context cancellation that tears the workers down.
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
//
// A frame is a small JSON header followed by a raw payload: the job's
// spec bytes and its snapshot bytes, or the result's canonical outcome
// bytes. The header stays JSON so the wire is still inspectable with a
// hex dump. The payloads are nearly all of a frame's bytes and are
// already encoded, so they cross as they are: inside a JSON body the
// outcome would travel as base64, a third larger, and the spec would be
// re-scanned on both ends. A spec's barrier snapshot is most of the
// spec, so it crosses as a section of its own after the spec JSON
// rather than as base64 inside it, and the worker's spec decode scans
// only the knobs.
//
// The fence costs one codec pass per result: digest.Decode re-encodes
// the decoded outcome once and accepts only the identical bytes, so the
// coordinator checks integrity by hashing the payload it received
// against the worker's digest, without encoding the outcome again.
package distengine

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"sync"
)

// ProtoVersion is the wire protocol version exchanged in the hello
// handshake; coordinator and worker must agree exactly. Version 3 sent
// the spec and the outcome as raw payload bytes after a JSON header;
// version 4 moves the spec's snapshot out of the spec JSON into a
// payload section of its own.
const ProtoVersion = 4

// maxFrame bounds one frame's encoded size (header length field, header
// and payload).
// Outcomes with full session records reach megabytes; snapshots of large
// worlds more. 256 MiB is far above any real payload while still
// rejecting a corrupt length prefix before it turns into an allocation.
const maxFrame = 256 << 20

// Frame types. Every message in either direction is one frame.
const (
	// frameHello is the worker's first message: its protocol version.
	frameHello = "hello"
	// frameJob carries one job (id, spec and snapshot) coordinator→worker.
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

// frame is the single wire message shape, fields used per type. On the
// wire a frame is
//
//	[4-byte length N][4-byte header length H][H bytes of header JSON][N-4-H payload bytes]
//
// both lengths big-endian. The header holds every field but Spec,
// Snapshot and Outcome, which are the payload: only job frames (Spec,
// then Snapshot) and result frames (Outcome) carry one, and the payload
// bytes cross unchanged. A job frame's payload has two sections: the
// spec JSON, then the last SnapshotLen bytes, the spec's snapshot. The
// outcome is the canonical JSON of internal/digest (see result.go),
// which carries the non-finite floats encoding/json refuses.
type frame struct {
	Type string `json:"type"`
	// Proto is the protocol version (hello frames).
	Proto int `json:"proto,omitempty"`
	// ID identifies a job (job, cancel, result frames). IDs are unique
	// per coordinator, so a late result can never be mistaken for the
	// answer to a different job.
	ID int64 `json:"id,omitempty"`
	// Spec is the encoded jobspec.Spec with its Snapshot cleared (job
	// frames' first payload section).
	Spec []byte `json:"-"`
	// Snapshot is the spec's encoded snapshot (job frames' second payload
	// section), and SnapshotLen its length on the wire, which send fills
	// in.
	Snapshot    []byte `json:"-"`
	SnapshotLen int    `json:"snapshot_len,omitempty"`
	// Outcome is the result's canonical JSON (result frames' payload): a
	// campaign.FleetOutcome for fleet specs, a campaign.Outcome otherwise.
	Outcome []byte `json:"-"`
	// Digest is the SHA-256 of Outcome; the coordinator hashes the
	// payload it decoded and compares.
	Digest string `json:"digest,omitempty"`
	// ElapsedSec is the worker-side wall clock of the job.
	ElapsedSec float64 `json:"elapsed_sec,omitempty"`
	// ErrKind/ErrMsg/Stack report a failed job (result frames).
	ErrKind string `json:"err_kind,omitempty"`
	ErrMsg  string `json:"err_msg,omitempty"`
	Stack   string `json:"stack,omitempty"`
}

// payload returns the sections f carries after its header, in wire
// order: the spec and the snapshot of a job frame, the outcome of a
// result frame, none for the other types.
func (f *frame) payload() ([][]byte, error) {
	switch {
	case f.Type == frameJob && len(f.Outcome) == 0:
		return [][]byte{f.Spec, f.Snapshot}, nil
	case f.Type == frameResult && len(f.Spec)+len(f.Snapshot) == 0:
		return [][]byte{f.Outcome}, nil
	case len(f.Spec)+len(f.Snapshot)+len(f.Outcome) == 0:
		return nil, nil
	}
	return nil, fmt.Errorf("distengine: send %s frame: only a job frame carries a spec and a snapshot and only a result frame an outcome", f.Type)
}

// setPayload splits a received payload into the sections f's type
// carries. The header's snapshot_len must fit the payload and may be
// nonzero only on a job frame.
func (f *frame) setPayload(p []byte) error {
	switch {
	case f.SnapshotLen != 0 && f.Type != frameJob:
		return fmt.Errorf("distengine: recv: %q frame carries a snapshot section", f.Type)
	case f.SnapshotLen < 0 || f.SnapshotLen > len(p):
		return fmt.Errorf("distengine: recv: snapshot_len %d does not fit a %d-byte payload", f.SnapshotLen, len(p))
	case len(p) == 0:
	case f.Type == frameJob:
		cut := len(p) - f.SnapshotLen
		f.Spec, f.Snapshot = p[:cut], p[cut:]
	case f.Type == frameResult:
		f.Outcome = p
	default:
		return fmt.Errorf("distengine: recv: %q frame carries a %d-byte payload", f.Type, len(p))
	}
	return nil
}

// streamConn is one framed, bidirectional connection. It frames
// messages with the length prefixes of frame's layout over any byte stream —
// a child process's stdin/stdout in exec mode, a TCP connection in TCP
// mode, net.Pipe in tests — so message boundaries survive arbitrary
// buffering. send is safe for concurrent use; recv must be called from a
// single goroutine.
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
	sections, err := f.payload()
	if err != nil {
		return err
	}
	f.SnapshotLen = len(f.Snapshot)
	hdr, err := json.Marshal(f)
	if err != nil {
		return fmt.Errorf("distengine: encode %s frame: %w", f.Type, err)
	}
	n := 4 + len(hdr)
	for _, s := range sections {
		n += len(s)
	}
	if n > maxFrame {
		return fmt.Errorf("distengine: send %s frame: length %d exceeds %d", f.Type, n, maxFrame)
	}
	head := make([]byte, 8, 8+len(hdr))
	binary.BigEndian.PutUint32(head, uint32(n))
	binary.BigEndian.PutUint32(head[4:], uint32(len(hdr)))
	// The payload is written as it is, never copied into a frame buffer;
	// over TCP the pieces go out in one writev. An empty section is left
	// out: net.Pipe blocks a zero-byte write until the peer reads.
	bufs := net.Buffers{append(head, hdr...)}
	for _, s := range sections {
		if len(s) > 0 {
			bufs = append(bufs, s)
		}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, err := bufs.WriteTo(c.w); err != nil {
		return fmt.Errorf("distengine: send %s frame: %w", f.Type, err)
	}
	return nil
}

func (c *streamConn) recv() (frame, error) {
	var prefix [4]byte
	if _, err := io.ReadFull(c.r, prefix[:]); err != nil {
		return frame{}, fmt.Errorf("distengine: recv: %w", err)
	}
	n := binary.BigEndian.Uint32(prefix[:])
	if n > maxFrame {
		return frame{}, fmt.Errorf("distengine: recv: frame length %d exceeds %d", n, maxFrame)
	}
	if n < 4 {
		return frame{}, fmt.Errorf("distengine: recv: frame length %d cannot hold a header length", n)
	}
	if _, err := io.ReadFull(c.r, prefix[:]); err != nil {
		return frame{}, fmt.Errorf("distengine: recv header length: %w", err)
	}
	h := binary.BigEndian.Uint32(prefix[:])
	if h > n-4 {
		return frame{}, fmt.Errorf("distengine: recv: frame length %d cannot hold a %d-byte header", n, h)
	}
	body, err := readBody(c.r, int(n-4))
	if err != nil {
		return frame{}, fmt.Errorf("distengine: recv body: %w", err)
	}
	var f frame
	if err := json.Unmarshal(body[:h], &f); err != nil {
		return frame{}, fmt.Errorf("distengine: decode frame header: %w", err)
	}
	if err := f.setPayload(body[h:]); err != nil {
		return frame{}, err
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
func handshake(c *streamConn) error {
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
