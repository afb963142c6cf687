GO ?= go

# Benchmarks that gate in CI: the parallel engine's sweep throughput,
# the end-to-end campaign hot path (including the death-heavy 10k scale
# configs), the incremental routing recompute against its full-rebuild
# twin, the snapshot/fork seed sweep against its rebuild baseline
# (BenchmarkSeedSweep matches both), the live-checkpoint capture
# cost that bounds how aggressive -checkpoint-every can be, the CSA
# planner at 200 and 400 nodes, one simulated day of world steps at
# 1k and 10k nodes, the world step's dense drain pass alone, the
# key-node analysis the attack planner runs over the radio graph, and
# the sink's detector suite over a 14-day attack audit.
GATED_BENCH = BenchmarkExperimentSweep|BenchmarkCampaignRun|BenchmarkSeedSweep|BenchmarkRecomputeIncremental|BenchmarkCheckpointCapture|BenchmarkSolveCSA|BenchmarkWorldStep|BenchmarkAdvanceEnergyPass|BenchmarkKeyNodes|BenchmarkJudge
BENCH_PKGS = . ./internal/campaign ./internal/campaign/world ./internal/wrsn ./internal/detect
BENCH_SHA = $(shell git rev-parse --short HEAD 2>/dev/null || echo dev)

.PHONY: all build vet fmt-check staticcheck test race bench bench-all bench-json bench-gate bench-baseline bench-smoke verify verify-faults verify-daemon verify-snapshot verify-checkpoint verify-scale verify-dist fuzz results clean

all: verify

build:
	$(GO) build ./...

vet: fmt-check
	$(GO) vet ./...

# fmt-check fails if any tracked Go file is not gofmt-clean, printing the
# offending paths.
fmt-check:
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; \
	fi

# staticcheck runs only when the binary is installed — local images
# without it skip the target instead of failing (nothing is downloaded
# here). CI installs a pinned version so the soft-skip never fires there.
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping"; \
	fi

test:
	$(GO) test ./...

# The parallel experiment engine makes the race detector part of tier-1:
# every campaign fan-out and merge path runs under -race.
race:
	$(GO) test -race ./...

# bench focuses on the performance contracts: the parallel engine's
# scaling (BenchmarkExperimentSweep), the end-to-end campaign hot path
# (BenchmarkCampaignRun), and the telemetry subsystem's near-zero
# disabled cost (BenchmarkProbeOverhead).
bench:
	$(GO) test -run '^$$' -bench='$(GATED_BENCH)|BenchmarkProbeOverhead' -benchmem $(BENCH_PKGS)

# bench-all regenerates every reconstructed figure/table as a benchmark.
bench-all:
	$(GO) test -bench=. -benchmem

# bench-json measures the gated benchmarks and writes BENCH_<sha>.json.
bench-json:
	$(GO) test -run '^$$' -bench='$(GATED_BENCH)' -benchmem -json $(BENCH_PKGS) \
		| $(GO) run ./cmd/benchjson -out BENCH_$(BENCH_SHA).json

# bench-gate fails if a gated benchmark regressed >15% (ns/op or
# allocs/op) against the committed baseline. CI runs this on every PR.
bench-gate: bench-json
	$(GO) run ./cmd/benchjson -compare BENCH_baseline.json -against BENCH_$(BENCH_SHA).json \
		-max-regress 0.15 -match '$(GATED_BENCH)'

# bench-baseline refreshes the committed baseline from the current tree.
# Run on a quiet machine and commit the result alongside the change that
# justifies it.
bench-baseline:
	$(GO) test -run '^$$' -bench='$(GATED_BENCH)' -benchmem -json $(BENCH_PKGS) \
		| $(GO) run ./cmd/benchjson -out BENCH_baseline.json

# bench-smoke runs every gated benchmark exactly once at GOMAXPROCS 1: a
# benchmark that panics or fails its own check fails the target, which a
# compile-only pass would not notice. It measures nothing.
bench-smoke:
	$(GO) test -run '^$$' -bench='$(GATED_BENCH)' -cpu 1 -benchtime 1x $(BENCH_PKGS)

# verify is the tier-1 gate: build, vet (+gofmt, +staticcheck when
# present), plain tests, race tests.
verify: build vet staticcheck test race

# verify-faults focuses the fault-injection contracts: the golden
# byte-identity and fault-flavor digests, and the faults + hardened
# engine packages under the race detector.
verify-faults:
	$(GO) test ./internal/campaign -run 'Golden|Fault|EmptyPlan' -count=1
	$(GO) test -race ./internal/faults/... ./internal/experiments/engine/... ./internal/campaign/world/...

# verify-daemon exercises the campaign-as-a-service path: the service and
# client suites (HTTP determinism fence, backpressure, drain) under the
# race detector, then the daemon's end-to-end -smoke self-test — a real
# loopback HTTP server whose job digests must match the library path.
verify-daemon:
	$(GO) test -race -count=1 ./internal/service/... ./internal/jobspec/... ./client/...
	$(GO) run ./cmd/wrsncsad -smoke -workers 4

# verify-snapshot focuses the snapshot/fork contracts: the golden fork
# fence (every pinned digest reproduced from a fork, and from an
# encode→decode→fork), the snapshot package's round-trip and concurrency
# suite under the race detector, and the jobspec snapshot-spec
# determinism fence.
verify-snapshot:
	$(GO) test ./internal/campaign -run 'GoldenForked|GoldenDecodedFork|ForkSpecsCover' -count=1
	$(GO) test -race -count=1 ./internal/snapshot/...
	$(GO) test -count=1 ./internal/jobspec -run 'Snapshot'

# verify-checkpoint is the kill-and-resume fence: EVERY golden flavor is
# stopped at a deterministic pseudo-random barrier, serialized, decoded,
# and resumed — and must reproduce its exact golden Outcome digest —
# under the race detector; then the service-layer drill (daemon drain
# parks jobs at checkpoints, a restarted daemon resumes them to the same
# digest) and the stateful-scheduler resume (a PeriodicTSP job stopped
# mid-tour, single-charger and fleet) run the same way.
verify-checkpoint:
	WRSN_VERIFY_CHECKPOINT=1 $(GO) test -race -count=1 ./internal/campaign -run 'TestCheckpointResumeGolden|TestCheckpointPeriodicCapture' -timeout 20m
	$(GO) test -race -count=1 ./internal/service ./internal/jobspec -run 'Checkpoint|Drain|Restart|Healthz|ResumePeriodicTSP'

# verify-scale focuses the large-network contracts: the incremental
# shortest-path-tree oracle (exact equality with a brute-force canonical
# Dijkstra through randomized fail/repair/depletion sequences and an
# exact-tie lattice), the world step's lockstep oracle (the lazy drain
# against a world that syncs every node every step and scans in full,
# through random charge, drain, fault and death sequences), and a
# 10k-node campaign smoke.
verify-scale:
	$(GO) test ./internal/wrsn -run 'Incremental' -count=1
	$(GO) test ./internal/campaign/world -run 'FusedStepLockstep' -count=1
	$(GO) test ./internal/campaign -run 'TestScaleSmoke' -count=1 -timeout 10m

# verify-dist is the distributed byte-identity fence: every golden
# flavor is re-run through real worker processes — exec mode (the test
# binary re-execed as a worker over stdin/stdout) and TCP mode — at
# shards 1, 2 and 8, each digest compared bit-for-bit against the
# pinned golden, plus the worker-killed-mid-job failover drill, all
# under the race detector. Then an end-to-end CLI smoke: the same
# experiments regenerated in-process and sharded across two spawned
# wrsnworker processes must emit byte-identical stdout — rtab6 for the
# single-charger jobs, rtab4 for the fleet jobs.
verify-dist:
	WRSN_VERIFY_DIST=1 $(GO) test -race -count=1 ./internal/distengine -timeout 30m
	rm -rf .distwork && mkdir -p .distwork
	$(GO) build -o .distwork/wrsnworker ./cmd/wrsnworker
	$(GO) build -o .distwork/experiments ./cmd/experiments
	for id in rtab6 rtab4; do \
		.distwork/experiments -quick -seeds 2 -only $$id > .distwork/local.txt && \
		.distwork/experiments -quick -seeds 2 -only $$id \
			-shards 2 -worker-cmd .distwork/wrsnworker > .distwork/dist.txt && \
		cmp .distwork/local.txt .distwork/dist.txt || exit 1; \
	done
	rm -rf .distwork

# fuzz runs every fuzz target for a bounded time: the strict outcome
# decoder, the snapshot decoder, the worker frame reader, the attack
# planner's evaluator, route oracle and incremental cover packer (held
# to its exhaustive twin), the ordered charging-request queue (held
# to a map model and sort-then-scan scheduler picks), incremental
# routing on tie-heavy lattices (held to a brute-force Dijkstra and a
# from-scratch rebuild), the static link table on arbitrary finite
# layouts (held to the pairwise scan, its recomputes to the same
# oracles), one lazy drain step and the lazy drain under random steps,
# charges, drains, faults, forced levels, recomputes and forks (both
# held to a dense per-step reference loop), the zero-gain
# detector's one-pass scan (held to the sort-based score), the job-spec
# decoder and the scenario file reader (no panics; a write → read round
# trip is the identity on what each accepts, and accepted scenarios
# build without panicking). Minimization is capped because the
# FuzzDecode seeds are whole campaign outcomes and snapshots (~100 kB),
# which the default 60 s minimizer would spend the whole budget
# shrinking. A crasher is written to the package's testdata/fuzz/
# directory; commit it as a regression seed.
fuzz:
	$(GO) test -run '^$$' -fuzz '^FuzzDecode$$' -fuzztime 10s -fuzzminimizetime 100x ./internal/digest
	$(GO) test -run '^$$' -fuzz '^FuzzDecode$$' -fuzztime 10s -fuzzminimizetime 100x ./internal/snapshot
	$(GO) test -run '^$$' -fuzz '^FuzzFrameRecv$$' -fuzztime 10s -fuzzminimizetime 100x ./internal/distengine
	$(GO) test -run '^$$' -fuzz '^FuzzEvaluate$$' -fuzztime 10s -fuzzminimizetime 100x ./internal/attack
	$(GO) test -run '^$$' -fuzz '^FuzzRouteOracle$$' -fuzztime 10s -fuzzminimizetime 100x ./internal/attack
	$(GO) test -run '^$$' -fuzz '^FuzzPackCovers$$' -fuzztime 10s -fuzzminimizetime 100x ./internal/attack
	$(GO) test -run '^$$' -fuzz '^FuzzQueue$$' -fuzztime 10s -fuzzminimizetime 100x ./internal/charging
	$(GO) test -run '^$$' -fuzz '^FuzzIncrementalRouting$$' -fuzztime 10s -fuzzminimizetime 100x ./internal/wrsn
	$(GO) test -run '^$$' -fuzz '^FuzzLinkTable$$' -fuzztime 10s -fuzzminimizetime 100x ./internal/wrsn
	$(GO) test -run '^$$' -fuzz '^FuzzAdvanceEnergyPass$$' -fuzztime 10s -fuzzminimizetime 100x ./internal/wrsn
	$(GO) test -run '^$$' -fuzz '^FuzzLazyDrain$$' -fuzztime 10s -fuzzminimizetime 100x ./internal/wrsn
	$(GO) test -run '^$$' -fuzz '^FuzzGainDetector$$' -fuzztime 10s -fuzzminimizetime 100x ./internal/detect
	$(GO) test -run '^$$' -fuzz '^FuzzDecode$$' -fuzztime 10s -fuzzminimizetime 100x ./internal/jobspec
	$(GO) test -run '^$$' -fuzz '^FuzzReadJSON$$' -fuzztime 10s -fuzzminimizetime 100x ./internal/trace

results:
	mkdir -p results
	$(GO) run ./cmd/experiments -out results/

# clean removes generated results, scratch benchmark manifests (keeping
# the committed BENCH_baseline.json), and distributed-worker scratch —
# the .distwork/ build-and-smoke directory and any stray worker sockets.
clean:
	rm -rf results/ .distwork/
	find . -maxdepth 1 -name 'BENCH_*.json' ! -name 'BENCH_baseline.json' -delete
	find . -maxdepth 2 -name '*.worker.sock' -delete
