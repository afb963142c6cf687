// Command perfbench is the repository's benchmark. One invocation runs
// one named workload over a fixed op list generated from -seed, checks
// every op's outcome digest against the in-process library path
// (jobspec.Run on the same spec), and prints the workload's metrics.
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics: the end-to-end metrics when
// -trace is 0, the per-layer metrics of a separate traced run when it
// is 1.
//
//	perfbench -bin DIR -workload attack-200 -seed 1 -seconds 15 -trace 0
//
// DIR holds the wrsncsad and wrsnworker binaries. run.sh builds them and
// this harness from the checkout and runs it; README.md says why each
// workload exists.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// gomaxprocs pins every Go process the benchmark runs (itself, the
// daemon, each worker), so no figure scales with the host's CPU count.
const gomaxprocs = 1

// minOps keeps at least 2×tailBeyond timed ops, so a tail above the
// median always exists.
const minOps = 2 * tailBeyond

// deadline bounds a whole invocation; it fails rather than overrun.
const deadline = 170 * time.Second

// workload is one named traffic shape. Its op count is fixed by rate ×
// -seconds, never by how many ops fit in the time.
type workload struct {
	name string
	rate float64 // nominal ops per second of -seconds
	// sensitivity, for an in-process workload, scales its times to the
	// probe's nominal speed (speed.go); 0 leaves them as measured.
	sensitivity float64
	run         func(ctx context.Context, b *bench) error
}

// The sensitivities are the log-log slopes of op time on probe time,
// fitted over runs on a 2-vCPU KVM host whose speed swung 1.8× between
// stretches: attack-200's planning and stepping follow the probe fully;
// legit-10k's 10k-node world waits on memory and follows it at 0.75.
var workloads = []workload{
	{"attack-200", 16, 1, runAttack200},
	{"legit-10k", 2, 0.75, runLegit10k},
	{"daemon", daemonRate, 0, runDaemon},
	{"sweep-sharded", 40, 0, runSweep},
}

// metric is one named figure in the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metricDef struct{ name, unit string }

// endToEnd are the figures a user of the system sees; every workload
// reports all of them on an untraced run.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"op_p50_ms", "ms"},
	{"cpu_ms_per_op", "ms"},
	{"peak_rss_mb", "MiB"},
	{"ok_frac", "frac"},
}

// perLayer are the traced run's figures. A layer a workload never calls
// reads 0 there. Times are self time per op (per set-up for set-up
// layers); counts and sizes are per op. op_tail_ms, the untraced pass's
// tail, sits here rather than among the gated end-to-end figures: steal
// bursts on a shared host move it far more than the median.
var perLayer = []metricDef{
	{"op_tail_ms", "ms"},
	{"trace.build_ms", "ms"},
	{"snapshot.build_ms", "ms"},
	{"snapshot.encode_ms", "ms"},
	{"snapshot.decode_ms", "ms"},
	{"snapshot.fork_ms", "ms"},
	{"snapshot.bytes", "B"},
	{"attack.instance_ms", "ms"},
	{"attack.solve_ms", "ms"},
	{"campaign.run_ms", "ms"},
	{"campaign.exec_ms", "ms"},
	{"campaign.requests_issued", "count"},
	{"campaign.requests_served", "count"},
	{"campaign.sessions_focus", "count"},
	{"campaign.sessions_spoof", "count"},
	{"campaign.deaths", "count"},
	{"campaign.key_dead", "count"},
	{"digest.canonical_ms", "ms"},
	{"digest.bytes", "B"},
	{"jobspec.encode_ms", "ms"},
	{"jobspec.decode_ms", "ms"},
	{"jobspec.validate_ms", "ms"},
	{"jobspec.bytes", "B"},
	{"service.submit_rtt_ms", "ms"},
	{"service.queue_wait_ms", "ms"},
	{"service.run_ms", "ms"},
	{"gen.late_ms", "ms"},
	{"dist.handshake_ms", "ms"},
	{"dist.roundtrip_ms", "ms"},
	{"dist.inproc_ms", "ms"},
	{"dist.wire_ms", "ms"},
	{"dist.result_bytes", "B"},
	{"dist.gob_nil_rejects", "count"},
	{"rt.allocs_per_op", "count"},
	{"rt.alloc_mb_per_op", "MiB"},
	{"rt.gc_per_op", "count"},
	{"fail.error", "count"},
	{"fail.rejected", "count"},
	{"fail.digest", "count"},
	{"trace.op_p50_ms", "ms"},
	{"trace.overhead_ms", "ms"},
	{"host.steal_s", "s"},
	{"host.probe_ms", "ms"},
}

// bench is one workload execution: its inputs and what it measured.
type bench struct {
	seed uint64
	nops int
	bin  string // directory holding wrsncsad and wrsnworker
	tr   *tracer

	// sensitivity is the workload's; a scaled workload reports its times
	// at the probe's nominal speed (speed.go).
	sensitivity float64

	use      usage     // the processes doing the work
	setup    []float64 // seconds per set-up repetition
	rawSetup []float64 // the same, unscaled, when scaled
	passOut            // the untraced pass
	rssMB    float64
	tally
	wrong []string           // why the outputs are not correct
	layer map[string]float64 // per-layer counts, sizes and derived times
}

func (b *bench) traced() bool { return b.tr != nil }

func (b *bench) scaled() bool { return b.sensitivity > 0 }

// mismatch records an output that differs from the library path.
func (b *bench) mismatch(format string, args ...any) {
	b.wrong = append(b.wrong, fmt.Sprintf(format, args...))
}

// timeSetup runs a workload's set-up reps times, timing each; set-up
// under ~0.1 s is repeated so its median is not a coin flip. rep is
// passed on so traced set-up spans of each repetition stay apart.
func (b *bench) timeSetup(reps int, fn func(rep int) error) error {
	for rep := 0; rep < reps; rep++ {
		var before float64
		if b.scaled() {
			before = probe()
		}
		t0 := time.Now()
		if err := fn(rep); err != nil {
			return err
		}
		d := time.Since(t0).Seconds()
		if b.scaled() {
			b.rawSetup = append(b.rawSetup, d)
			d *= speedScale(before, probe(), b.sensitivity)
		}
		b.setup = append(b.setup, d)
	}
	return nil
}

// passOut is what one pass over the timed op list measured. A scaled
// pass's times are at the probe's nominal speed; the raw fields keep them
// as the clock read them.
type passOut struct {
	lat   []float64 // ms per completed op
	wallS float64   // seconds the timed ops took
	cpuS  float64   // CPU seconds they used, over every process doing the work

	rawLat   []float64
	rawWallS float64
	rawCPUS  float64
	probeMS  []float64 // every probe time of the pass
}

// pass runs the timed op list once, traced when tr is non-nil.
type pass func(ctx context.Context, tr *tracer) (passOut, error)

// measure runs the untraced pass for the end-to-end figures. A traced
// run then runs the same op list again under the tracer, so tracing
// overhead is the traced median minus the untraced one.
func (b *bench) measure(ctx context.Context, p pass) error {
	var m0, m1 runtime.MemStats
	if b.traced() {
		runtime.ReadMemStats(&m0)
	}
	out, err := p(ctx, nil)
	if err != nil {
		return err
	}
	b.passOut = out
	if b.rssMB, err = b.use.peakRSS(); err != nil {
		return err
	}
	if !b.traced() {
		return nil
	}
	runtime.ReadMemStats(&m1)
	n := float64(b.nops)
	b.layer["rt.allocs_per_op"] = float64(m1.Mallocs-m0.Mallocs) / n
	b.layer["rt.alloc_mb_per_op"] = float64(m1.TotalAlloc-m0.TotalAlloc) / (1 << 20) / n
	b.layer["rt.gc_per_op"] = float64(m1.NumGC-m0.NumGC) / n
	traced, err := p(ctx, b.tr)
	if err != nil {
		return err
	}
	b.layer["trace.op_p50_ms"] = median(traced.lat)
	b.layer["trace.overhead_ms"] = median(traced.lat) - median(b.lat)
	return nil
}

// opClock sums the wall and CPU time of in-process ops, leaving out the
// benchmark's own work between them (digest checks, planning probes), and
// scales each op to the probe's nominal speed by the speed probes run
// right before and right after it.
type opClock struct {
	sens     float64 // the workload's sensitivity
	out      passOut
	t        time.Time
	cpu      float64
	before   float64 // probe ms before the current op
	lat, raw float64 // the last op's latency in ms, scaled and unscaled
}

func (k *opClock) start() {
	k.before = probe()
	k.t, k.cpu = time.Now(), selfCPU()
}

// stop ends the op; keep then counts its latency as a completed op's.
func (k *opClock) stop() {
	d := time.Since(k.t).Seconds()
	c := selfCPU() - k.cpu
	after := probe()
	f := speedScale(k.before, after, k.sens)
	k.out.probeMS = append(k.out.probeMS, k.before, after)
	k.out.wallS += d * f
	k.out.cpuS += c * f
	k.out.rawWallS += d
	k.out.rawCPUS += c
	k.lat, k.raw = d*1000*f, d*1000
}

func (k *opClock) keep() {
	k.out.lat = append(k.out.lat, k.lat)
	k.out.rawLat = append(k.out.rawLat, k.raw)
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func (b *bench) result(steal float64) result {
	out := result{
		Correct:   len(b.wrong) == 0,
		Attempted: b.attempted,
		Failed:    b.failed(),
		Metrics:   make(map[string]metric),
	}
	if !b.traced() {
		vals := map[string]float64{
			"setup_s":       median(b.setup),
			"ops_per_s":     float64(len(b.lat)) / b.wallS,
			"op_p50_ms":     median(b.lat),
			"cpu_ms_per_op": b.cpuS * 1000 / float64(b.nops),
			"peak_rss_mb":   b.rssMB,
			"ok_frac":       1 - b.failedFrac(),
		}
		for _, d := range endToEnd {
			out.Metrics[d.name] = metric{vals[d.name], d.unit}
		}
		return out
	}
	b.layer["op_tail_ms"] = b.tail()
	self := b.tr.selfMS()
	for name, ms := range self {
		b.layer[name+"_ms"] = ms
	}
	if run, ok := self["campaign.run"]; ok {
		b.layer["campaign.exec_ms"] = run - self["attack.instance"] - self["attack.solve"]
	}
	if rt, ok := self["dist.roundtrip"]; ok {
		b.layer["dist.wire_ms"] = rt - self["dist.inproc"]
	}
	for cause, n := range b.causes {
		b.layer["fail."+cause] = float64(n)
	}
	b.layer["host.steal_s"] = steal
	b.layer["host.probe_ms"] = median(b.probeMS)
	for _, d := range perLayer {
		out.Metrics[d.name] = metric{b.layer[d.name], d.unit}
	}
	return out
}

// tail is the untraced pass's highest per-op percentile with at least
// tailBeyond ops beyond it.
func (b *bench) tail() float64 { return percentile(b.lat, tailPercentile(b.nops)) }

// splitmix64 is the benchmark's seed mixer: every input derives from
// -seed through it, so the same seed always yields the same op list.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// specSeeds returns k distinct scenario seeds derived from seed, salted
// per workload so workloads do not share worlds.
func specSeeds(seed uint64, salt string, k int) []uint64 {
	x := seed
	for _, c := range salt {
		x = splitmix64(x ^ uint64(c))
	}
	seen := make(map[uint64]bool, k)
	out := make([]uint64, 0, k)
	for len(out) < k {
		x = splitmix64(x)
		s := x%1_000_000 + 1
		if !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	return out
}

// opCount fixes a workload's number of timed ops from -seconds.
func opCount(rate float64, seconds int) int {
	return max(minOps, int(math.Round(rate*float64(seconds))))
}

func main() {
	name := flag.String("workload", "", "workload to run: "+workloadNames())
	seed := flag.Uint64("seed", 1, "seed every input derives from")
	seconds := flag.Int("seconds", 15, "nominal seconds of timed work; fixes the op count")
	traceFlag := flag.Int("trace", 0, "1 runs the traced pass and prints per-layer metrics")
	bin := flag.String("bin", "", "directory holding the wrsncsad and wrsnworker binaries")
	out := flag.String("out", "", "directory for the span dump of a traced run (none when empty)")
	flag.Parse()
	if err := run(*name, *seed, *seconds, *traceFlag == 1, *bin, *out); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}

func run(name string, seed uint64, seconds int, traced bool, bin, out string) error {
	var w *workload
	for i := range workloads {
		if workloads[i].name == name {
			w = &workloads[i]
		}
	}
	if w == nil {
		return fmt.Errorf("unknown workload %q (want one of %s)", name, workloadNames())
	}
	if seconds < 1 {
		return fmt.Errorf("-seconds must be ≥ 1, got %d", seconds)
	}
	runtime.GOMAXPROCS(gomaxprocs)
	h := newHost()
	steal0, err := stealTicks()
	if err != nil {
		return err
	}
	ctx, cancel := context.WithTimeout(context.Background(), deadline)
	defer cancel()

	b := &bench{seed: seed, nops: opCount(w.rate, seconds), bin: bin, sensitivity: w.sensitivity, layer: make(map[string]float64)}
	if traced {
		b.tr = newTracer()
	}
	fmt.Printf("workload %s seed %d ops %d tail p%d traced %v\n", w.name, seed, b.nops, tailPercentile(b.nops), traced)
	if err := w.run(ctx, b); err != nil {
		return fmt.Errorf("%s: %w", w.name, err)
	}
	steal1, err := stealTicks()
	if err != nil {
		return err
	}
	h.StealS = float64(steal1-steal0) / userHZ
	if out != "" && traced {
		if err := os.MkdirAll(out, 0o755); err != nil {
			return err
		}
		if err := b.tr.write(filepath.Join(out, fmt.Sprintf("spans-%s-%d.json", w.name, seed))); err != nil {
			return err
		}
	}
	hj, _ := json.Marshal(h)
	fmt.Printf("host %s\n", hj)
	causes := make([]string, 0, len(b.causes))
	for c, n := range b.causes {
		causes = append(causes, fmt.Sprintf("%s=%d", c, n))
	}
	sort.Strings(causes)
	fmt.Printf("failures %v\n", causes)
	for _, why := range b.wrong {
		fmt.Printf("incorrect: %s\n", why)
	}
	res := b.result(h.StealS)
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("metric %-26s %14.4f %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	if !traced {
		fmt.Printf("tail   %-26s %14.4f ms (p%d; per-layer, not gated)\n", "op_tail_ms", b.tail(), tailPercentile(b.nops))
	}
	if b.scaled() {
		fmt.Printf("probe  median %.4f ms over %d probes (nominal %.4f ms); unscaled: setup_s %.6f, ops_per_s %.4f, op_p50_ms %.4f, cpu_ms_per_op %.4f\n",
			median(b.probeMS), len(b.probeMS), probeNominalMS, median(b.rawSetup),
			float64(len(b.rawLat))/b.rawWallS, median(b.rawLat), b.rawCPUS*1000/float64(b.nops))
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}
