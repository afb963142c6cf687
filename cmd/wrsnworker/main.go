// Command wrsnworker is the distributed-sweep worker process: a thin
// loop over jobspec.Run behind the distengine wire protocol. A
// coordinator (cmd/experiments -shards/-worker-cmd, or anything built on
// distengine.NewExecPool / distengine.Dial) ships serializable job
// specs; the worker runs each campaign and answers with the outcome's
// canonical JSON (internal/digest) plus the SHA-256 of those bytes.
// Every piece of randomness derives from seeds inside the spec, so
// results are byte-identical to an in-process run.
//
// Two modes:
//
//	wrsnworker                          # exec mode: frames over stdin/stdout
//	wrsnworker -listen 127.0.0.1:7601   # TCP mode: frames over each connection
//
// Both modes speak the same length-prefixed frames, a JSON header and a
// raw payload (distengine protocol version 4).
//
// Exec mode serves exactly one coordinator — the parent process — and
// exits when stdin closes or a shutdown frame arrives. TCP mode accepts
// any number of coordinator connections until interrupted.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"os/signal"

	"github.com/reprolab/wrsn-csa/internal/distengine"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdin, os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "wrsnworker:", err)
		os.Exit(1)
	}
}

// run executes the worker against explicit streams so tests can drive it
// in-process. Stdout belongs to the wire protocol in exec mode; all
// diagnostics go to errw.
func run(ctx context.Context, args []string, stdin io.Reader, stdout io.Writer, errw io.Writer) error {
	fs := flag.NewFlagSet("wrsnworker", flag.ContinueOnError)
	fs.SetOutput(errw)
	listen := fs.String("listen", "", "serve coordinators over TCP on this address instead of stdin/stdout")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *listen == "" {
		return distengine.ServeStdio(ctx, stdin, stdout, nil)
	}
	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		return err
	}
	fmt.Fprintf(errw, "wrsnworker: listening on %s\n", ln.Addr())
	return distengine.ListenAndServe(ctx, ln, nil)
}
