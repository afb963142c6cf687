package distengine

import (
	"context"
	"fmt"
	"net"
	"time"
)

// DialConfig configures a TCP-mode pool: the workers are already running
// (cmd/wrsnworker -listen, possibly on other hosts) and the coordinator
// dials one connection per address, speaking the same length-prefixed
// frames as exec mode.
type DialConfig struct {
	// Addrs are the worker endpoints, one shard each; must be non-empty.
	Addrs []string
	// CrashRetries is the failover budget per job; negative gets
	// DefaultCrashRetries, 0 disables failover.
	CrashRetries int
	// Timeout bounds each dial + hello handshake; non-positive gets the
	// default handshake timeout.
	Timeout time.Duration
}

// Dial connects to every configured worker and returns a Pool over the
// connections. Construction fails — closing whatever was already
// connected — if any endpoint is unreachable or fails the handshake.
// Canceling ctx after construction closes the connections, which the
// serving workers observe as a disconnect and abandon in-flight jobs.
func Dial(ctx context.Context, cfg DialConfig) (*Pool, error) {
	if len(cfg.Addrs) == 0 {
		return nil, fmt.Errorf("distengine: dial pool needs ≥ 1 worker address")
	}
	if cfg.CrashRetries < 0 {
		cfg.CrashRetries = DefaultCrashRetries
	}
	timeout := cfg.Timeout
	if timeout <= 0 {
		timeout = defaultHandshakeTimeout
	}

	shards := make([]*shard, 0, len(cfg.Addrs))
	fail := func(err error) (*Pool, error) {
		for _, s := range shards {
			s.kill()
		}
		return nil, err
	}
	dialer := net.Dialer{Timeout: timeout}
	for i, addr := range cfg.Addrs {
		raw, err := dialer.DialContext(ctx, "tcp", addr)
		if err != nil {
			return fail(fmt.Errorf("distengine: dial shard %d (%s): %w", i, addr, err))
		}
		conn := newStreamConn(raw, raw, raw)
		s := &shard{
			idx:  i,
			conn: conn,
			kill: func() { _ = raw.Close() },
		}
		shards = append(shards, s)
		if err := handshakeTimeout(conn, timeout); err != nil {
			return fail(fmt.Errorf("distengine: shard %d (%s): %w", i, addr, err))
		}
	}
	p := newPool(shards, cfg.CrashRetries)
	// Tie the connections to the session context, mirroring the exec
	// mode's CommandContext teardown: cancellation severs every shard.
	go func() {
		<-ctx.Done()
		for _, s := range p.shards {
			s.kill()
		}
	}()
	return p, nil
}
