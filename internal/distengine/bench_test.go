package distengine

import (
	"context"
	"net"
	"testing"

	"github.com/reprolab/wrsn-csa/internal/jobspec"
	"github.com/reprolab/wrsn-csa/internal/mc"
	"github.com/reprolab/wrsn-csa/internal/snapshot"
)

// BenchmarkWireRoundTrip prices the worker wire as its own layer. The
// "wire" row is one Pool.Submit per op to an in-process Serve over
// net.Pipe: spec encode, frames both ways, spec decode, the run, the
// canonical outcome, its decode and the re-digest. The "inproc" row runs
// jobspec.Run on the same specs, so the difference is what the wire
// costs a job; the wire row reports it as wire-ns/op when both rows run.
// The specs carry their world as a snapshot, as a sharded sweep's do.
// The row sits outside the Makefile's bench gate until the gate's
// baseline is re-based on a recorded host.
func BenchmarkWireRoundTrip(b *testing.B) {
	specs := make([]jobspec.Spec, 4)
	for i := range specs {
		base := jobspec.Default(uint64(i+1), 200)
		snap, err := snapshot.Build(base.Scenario, mc.DefaultParams())
		if err != nil {
			b.Fatal(err)
		}
		if specs[i], err = base.WithSnapshot(snap); err != nil {
			b.Fatal(err)
		}
	}
	ctx := context.Background()

	var inprocNs float64
	b.Run("inproc", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := jobspec.Run(ctx, specs[i%len(specs)], nil); err != nil {
				b.Fatal(err)
			}
		}
		inprocNs = float64(b.Elapsed().Nanoseconds()) / float64(b.N)
	})
	b.Run("wire", func(b *testing.B) {
		cside, wside := net.Pipe()
		served := make(chan error, 1)
		go func() { served <- Serve(ctx, newStreamConn(wside, wside, wside), nil) }()
		conn := newStreamConn(cside, cside, cside)
		if err := handshake(conn); err != nil {
			b.Fatal(err)
		}
		p := newPool([]*shard{{conn: conn, kill: func() { _ = conn.close() }}}, 0)
		defer func() {
			p.Close()
			if err := <-served; err != nil {
				b.Error(err)
			}
		}()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := p.Submit(ctx, specs[i%len(specs)]); err != nil {
				b.Fatal(err)
			}
		}
		if inprocNs > 0 {
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)-inprocNs, "wire-ns/op")
		}
	})
}
