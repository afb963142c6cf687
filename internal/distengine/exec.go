package distengine

import (
	"context"
	"fmt"
	"io"
	"os"
	"os/exec"
	"time"
)

// defaultHandshakeTimeout bounds how long pool construction waits for a
// worker's hello before declaring it broken.
const defaultHandshakeTimeout = 30 * time.Second

// ExecConfig configures an exec-mode pool: the coordinator spawns the
// worker binary itself, one process per shard, and speaks
// length-prefixed frames over each child's stdin/stdout.
type ExecConfig struct {
	// Shards is the number of worker processes; must be ≥ 1.
	Shards int
	// Command is the worker binary (typically cmd/wrsnworker); Args are
	// passed through to every shard.
	Command string
	Args    []string
	// Dir, when non-empty, is the workers' working directory.
	Dir string
	// Env, when non-nil, replaces the workers' environment (os.Environ()
	// otherwise) — the test harness uses it for the re-exec sentinel.
	Env []string
	// Stderr receives the workers' stderr (os.Stderr when nil), so a
	// crashing worker's last words reach the operator.
	Stderr io.Writer
	// CrashRetries is the failover budget per job; negative gets
	// DefaultCrashRetries, 0 disables failover.
	CrashRetries int
	// HandshakeTimeout bounds each worker's hello; non-positive gets the
	// default.
	HandshakeTimeout time.Duration
}

// NewExecPool spawns cfg.Shards worker processes and returns a Pool over
// them. The processes are tied to ctx via exec.CommandContext, so
// canceling the session context tears every worker down even if the
// coordinator never reaches Close. Construction fails — and already-
// started workers are killed — if any shard fails to start or complete
// its hello handshake.
func NewExecPool(ctx context.Context, cfg ExecConfig) (*Pool, error) {
	if cfg.Shards < 1 {
		return nil, fmt.Errorf("distengine: exec pool needs ≥ 1 shard, got %d", cfg.Shards)
	}
	if cfg.Command == "" {
		return nil, fmt.Errorf("distengine: exec pool needs a worker command")
	}
	if cfg.CrashRetries < 0 {
		cfg.CrashRetries = DefaultCrashRetries
	}
	hsTimeout := cfg.HandshakeTimeout
	if hsTimeout <= 0 {
		hsTimeout = defaultHandshakeTimeout
	}
	stderr := cfg.Stderr
	if stderr == nil {
		stderr = os.Stderr
	}

	shards := make([]*shard, 0, cfg.Shards)
	fail := func(err error) (*Pool, error) {
		for _, s := range shards {
			s.kill()
			s.reap()
		}
		return nil, err
	}
	for i := 0; i < cfg.Shards; i++ {
		cmd := exec.CommandContext(ctx, cfg.Command, cfg.Args...)
		cmd.Dir = cfg.Dir
		cmd.Env = cfg.Env
		cmd.Stderr = stderr
		stdin, err := cmd.StdinPipe()
		if err != nil {
			return fail(fmt.Errorf("distengine: shard %d stdin: %w", i, err))
		}
		stdout, err := cmd.StdoutPipe()
		if err != nil {
			return fail(fmt.Errorf("distengine: shard %d stdout: %w", i, err))
		}
		if err := cmd.Start(); err != nil {
			return fail(fmt.Errorf("distengine: shard %d start %s: %w", i, cfg.Command, err))
		}
		conn := newStreamConn(stdout, stdin, stdin)
		s := &shard{
			idx:  i,
			conn: conn,
			kill: func() {
				if cmd.Process != nil {
					_ = cmd.Process.Kill()
				}
			},
			reap: func() { _ = cmd.Wait() },
		}
		shards = append(shards, s)
		if err := handshakeTimeout(conn, hsTimeout); err != nil {
			return fail(fmt.Errorf("distengine: shard %d: %w", i, err))
		}
	}
	return newPool(shards, cfg.CrashRetries), nil
}

// handshakeTimeout runs the hello exchange under a deadline; a worker
// that never says hello (wrong binary, hung start) fails construction
// instead of hanging it.
func handshakeTimeout(c *streamConn, d time.Duration) error {
	done := make(chan error, 1)
	go func() { done <- handshake(c) }()
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case err := <-done:
		return err
	case <-t.C:
		c.close()
		return fmt.Errorf("distengine: handshake timed out after %v", d)
	}
}
