GO ?= go

# Benchmark knobs for bench-dispatch. Fixed -cpu keeps runs comparable
# across machines and against CI; override per invocation, e.g.
#   make bench-dispatch BENCHTIME=3s BENCHCPU=8
BENCHTIME ?= 1s
BENCHCPU ?= 4

.PHONY: all help build vet test test-race bench bench-dispatch bench-gate kvbench-smoke determinism chaos gray codecswap fuzz recovery ci ci-local

all: build

help:
	@echo "Targets:"
	@echo "  build           go build ./..."
	@echo "  vet             go vet ./..."
	@echo "  test            go test ./..."
	@echo "  test-race       go test -race ./... (deque/routing-cache stress tests)"
	@echo "  bench           full benchmark sweep (macro experiments included)"
	@echo "  bench-dispatch  hot-path microbenchmarks only: dispatch, fan-out,"
	@echo "                  ping-pong, deque. Pinned -benchtime $(BENCHTIME) -cpu $(BENCHCPU);"
	@echo "                  override with BENCHTIME=... BENCHCPU=..."
	@echo "  bench-gate      million-key + WAL durability + hedge + wire-codec catsbench"
	@echo "                  profiles (reduced scale) gated against the"
	@echo "                  bench/BENCH_baseline_* floors"
	@echo "  kvbench-smoke   vet + test the bench/kvbench module (its own go.mod, unseen by"
	@echo "                  ./...) and run its four workloads at smoke sizes"
	@echo "  determinism     run the simulation twice per seed and diff trace digests"
	@echo "  chaos           churn scenario under -race plus two-run chaos report diffs"
	@echo "                  (memory, long-outage, and durable WAL-backed variants)"
	@echo "  gray            gray-failure scenario (straggler pulses + overload burst):"
	@echo "                  3 seeds, two runs each diffed byte-identically, hedges and"
	@echo "                  sheds must fire, history linearizable with no lost writes"
	@echo "  codecswap       live wire-codec swap scenario: swap + flap event-stream"
	@echo "                  tests under -race, then 3 seeds run twice each and diffed"
	@echo "                  byte-identically with swaps fired and both formats on the wire"
	@echo "  fuzz            binary frame decoder fuzz targets, 30s each"
	@echo "  recovery        SIGKILL a durable cluster mid-churn, rebuild from WAL +"
	@echo "                  snapshots, assert linearizable + no lost acked writes"
	@echo "  ci              vet + build + test-race"
	@echo "  ci-local        full local mirror of the gating CI matrix (lint, tests,"
	@echo "                  alloc gates, kvbench, determinism, chaos, recovery, bench-gate)"

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# Race-detector run; includes the deque and routing-cache stress tests in
# internal/core (concurrent push/pop/steal, subscribe/unsubscribe under fire).
test-race:
	$(GO) test -race ./...

# Full benchmark sweep (experiment macro-benchmarks take seconds per run).
bench:
	$(GO) test -run '^$$' -bench . -benchmem ./...

# Just the hot-path microbenchmarks: dispatch allocs, batched fan-out, and
# deque throughput. -benchtime and -cpu are pinned (see BENCHTIME/BENCHCPU
# above) so results are comparable between local runs and the CI artifact.
bench-dispatch:
	$(GO) test -run '^$$' -bench 'BenchmarkEventDispatch|BenchmarkDispatchAllocs|BenchmarkPingPongRoundTrip|BenchmarkChannelFanout|BenchmarkFanout' -benchmem -benchtime $(BENCHTIME) -cpu $(BENCHCPU) -count=3 .
	$(GO) test -run '^$$' -bench 'BenchmarkWSDeque|BenchmarkStealPingPong' -benchmem -benchtime $(BENCHTIME) -cpu $(BENCHCPU) -count=3 ./internal/core/

# Local mirror of the CI bench-gate job: the reduced-scale million-key
# profile and the WAL durability A/B must complete cleanly within 10% of
# their checked-in throughput baselines, and the hedged-quorum A/B must
# keep beating the gray straggler's tail (see bench/README.md).
bench-gate:
	$(GO) build -o /tmp/catsbench ./cmd/catsbench
	/tmp/catsbench -exp million -quick -json-dir /tmp/bench -gate bench/BENCH_baseline_million.json
	/tmp/catsbench -exp wal -quick -json-dir /tmp/bench -wal-gate bench/BENCH_baseline_wal.json
	/tmp/catsbench -exp hedge -json-dir /tmp/bench -hedge-gate bench/BENCH_baseline_hedge.json
	/tmp/catsbench -exp codec -quick -json-dir /tmp/bench -codec-gate bench/BENCH_baseline_codec.json

# Local mirror of the CI kvbench job. bench/kvbench is its own module
# (replace repro => ../..), so the root ./... patterns never compile it:
# deleting an exported name it uses stays green everywhere else. The smoke
# run exits non-zero when an operation fails or verification does.
kvbench-smoke:
	$(GO) -C bench/kvbench vet ./...
	$(GO) -C bench/kvbench test -count=1 ./...
	bash bench/kvbench/run.sh -smoke -seed 7

# Local mirror of the CI determinism job: one seed, two runs, diff all
# deterministic output lines (wall time filtered) including the -trace digest.
determinism:
	$(GO) build -o /tmp/catssim ./cmd/catssim
	/tmp/catssim -mode sim -seed 7 -trace -boot 30 -churn 10 -lookups 200 -ops 100 -tail 10s | grep -v 'wall=' > /tmp/sim-a.txt
	/tmp/catssim -mode sim -seed 7 -trace -boot 30 -churn 10 -lookups 200 -ops 100 -tail 10s | grep -v 'wall=' > /tmp/sim-b.txt
	diff -u /tmp/sim-a.txt /tmp/sim-b.txt && echo "deterministic"

# Local mirror of the CI chaos job: the churn scenario under the race
# detector, then one seed's chaos report (with trace digest) run twice and
# diffed — crash-restart churn must be deterministic and lose nothing.
# Both the default and the long-outage (eviction + rejoin) variants run,
# and each must have completed handoff sync rounds.
chaos:
	$(GO) test -race -count=1 -run 'Churn' ./internal/experiments/
	$(GO) build -o /tmp/catssim ./cmd/catssim
	/tmp/catssim -mode chaos -seed 3 -trace > /tmp/chaos-a.txt
	/tmp/catssim -mode chaos -seed 3 -trace > /tmp/chaos-b.txt
	diff -u /tmp/chaos-a.txt /tmp/chaos-b.txt && cat /tmp/chaos-a.txt
	@! grep -q 'handoff_transfers=0 ' /tmp/chaos-a.txt || { echo "no handoff sync rounds completed"; exit 1; }
	@grep -q 'timelines=[1-9]' /tmp/chaos-a.txt || { echo "no trace timelines assembled"; exit 1; }
	/tmp/catssim -mode chaos -seed 11 -long -trace > /tmp/chaos-long-a.txt
	/tmp/catssim -mode chaos -seed 11 -long -trace > /tmp/chaos-long-b.txt
	diff -u /tmp/chaos-long-a.txt /tmp/chaos-long-b.txt && cat /tmp/chaos-long-a.txt
	@! grep -q 'handoff_transfers=0 ' /tmp/chaos-long-a.txt || { echo "no handoff sync rounds completed (long)"; exit 1; }
	# Durable variant: same churn on WAL-backed stores. The data dir must
	# start empty each run or replay shifts the (diffed) WAL counters.
	for run in a b; do \
		rm -rf /tmp/chaos-wal; \
		/tmp/catssim -mode chaos -seed 5 -trace -wal-dir /tmp/chaos-wal > /tmp/chaos-wal-$$run.txt || exit 1; \
	done
	diff -u /tmp/chaos-wal-a.txt /tmp/chaos-wal-b.txt && cat /tmp/chaos-wal-a.txt
	@grep -q 'wal_appends=[1-9]' /tmp/chaos-wal-a.txt || { echo "durable chaos produced no WAL appends"; exit 1; }

# Local mirror of the CI gray job: the gray-failure scenario (adaptive
# deadlines + hedged quorum phases + replica-side load shedding) under
# -race, then three seeds' reports each run twice and diffed — the
# injected slowness must be deterministic, the resilience machinery must
# demonstrably engage (hedges>0, sheds>0), and the client history must
# stay linearizable with zero lost acked writes.
gray:
	$(GO) test -race -count=1 -run 'Gray|HedgeBench|Hedge|Shed' ./internal/experiments/ ./internal/abd/
	$(GO) build -o /tmp/catssim ./cmd/catssim
	for seed in 3 77 4242; do \
		/tmp/catssim -mode gray -seed $$seed > /tmp/gray-$$seed-a.txt || exit 1; \
		/tmp/catssim -mode gray -seed $$seed > /tmp/gray-$$seed-b.txt || exit 1; \
		diff -u /tmp/gray-$$seed-a.txt /tmp/gray-$$seed-b.txt || exit 1; \
		cat /tmp/gray-$$seed-a.txt; \
		grep -q 'linearizable=true lost_acked_writes=0' /tmp/gray-$$seed-a.txt || { echo "seed $$seed: gray run lost acked writes"; exit 1; }; \
		grep -Eq 'hedges=[1-9][0-9]* hedge_wins=[1-9][0-9]* sheds=[1-9]' /tmp/gray-$$seed-a.txt || { echo "seed $$seed: resilience machinery never engaged"; exit 1; }; \
		grep -Eq 'slow_windows=[1-9]' /tmp/gray-$$seed-a.txt || { echo "seed $$seed: no gray faults injected"; exit 1; }; \
	done

# Local mirror of the CI codecswap job: the live-swap event-stream tests
# (zero lost/reordered frames across SwapCodec with a mid-swap redial)
# under -race, then three seeds' codecswap chaos reports each run twice
# and diffed — catssim itself exits 1 unless the history is linearizable
# with zero lost acked writes, zero codec errors, swaps > 0, and a frame
# mix spanning both wire formats.
codecswap:
	$(GO) test -race -count=1 -run 'CodecSwap|SwapCodec|SwapAllCodecs' ./internal/experiments/ ./internal/network/
	$(GO) build -o /tmp/catssim ./cmd/catssim
	for seed in 1 9 451; do \
		/tmp/catssim -mode codecswap -seed $$seed > /tmp/codecswap-$$seed-a.txt || exit 1; \
		/tmp/catssim -mode codecswap -seed $$seed > /tmp/codecswap-$$seed-b.txt || exit 1; \
		diff -u /tmp/codecswap-$$seed-a.txt /tmp/codecswap-$$seed-b.txt || exit 1; \
		cat /tmp/codecswap-$$seed-a.txt; \
	done

# Binary frame decoder fuzz targets (also run as 30s smoke in CI): the
# payload decoder must never panic or mis-frame on arbitrary bytes, the
# WireReader must latch at the first out-of-bounds read, and the framing
# layer must keep control prefixes and legal lengths disjoint.
fuzz:
	$(GO) test -run '^$$' -fuzz 'FuzzDecodePayload' -fuzztime 30s ./internal/network/
	$(GO) test -run '^$$' -fuzz 'FuzzWireReader' -fuzztime 30s ./internal/network/
	$(GO) test -run '^$$' -fuzz 'FuzzFramePrefix' -fuzztime 30s ./internal/network/

# Local mirror of the CI recovery job, one seed: phase 1 SIGKILLs its own
# process mid-churn (exit 137 is the expected outcome), phase 2 rebuilds
# the cluster from the data directory alone — twice, byte-identically —
# and must report a linearizable history with zero lost acked writes plus
# real WAL replay, snapshot, and handoff activity.
recovery:
	$(GO) test -race -count=1 -run 'Recovery|HistoryLog|ReplayCompletes' ./internal/experiments/ ./internal/abd/ ./internal/handoff/
	$(GO) build -o /tmp/catssim ./cmd/catssim
	# Phase 2 is itself durable (audit handoff appends to the WALs), so
	# determinism is asserted over the whole crash->recover pair: run the
	# pair twice from scratch and the recovery reports must match.
	for run in a b; do \
		rm -rf /tmp/recovery-local; \
		/tmp/catssim -mode recovery -phase crash -seed 3 -wal-dir /tmp/recovery-local; \
		status=$$?; [ $$status -eq 137 ] || { echo "crash phase exited $$status, want 137"; exit 1; }; \
		/tmp/catssim -mode recovery -phase recover -seed 3 -wal-dir /tmp/recovery-local > /tmp/recover-$$run.txt || exit 1; \
	done
	diff -u /tmp/recover-a.txt /tmp/recover-b.txt && cat /tmp/recover-a.txt
	@grep -q 'linearizable=true lost_acked_writes=0' /tmp/recover-a.txt || { echo "recovery lost acked writes"; exit 1; }
	@grep -q 'wal_replayed=[1-9]' /tmp/recover-a.txt || { echo "no WAL records replayed"; exit 1; }
	@grep -q 'snapshots_loaded=[1-9]' /tmp/recover-a.txt || { echo "no snapshots loaded"; exit 1; }
	@grep -q 'handoff_transfers=[1-9]' /tmp/recover-a.txt || { echo "no handoff rounds after recovery"; exit 1; }

ci: vet build test-race

# Everything the gating CI matrix runs, locally and in one command. The
# two alloc-gate suites and the scenario gates mirror .github/workflows/
# ci.yml; the -race pass is unsharded here (sharding only buys wall-clock
# on parallel runners).
ci-local: vet build
	test -z "$$(gofmt -l .)" || { gofmt -l .; exit 1; }
	$(GO) test -count=1 ./...
	$(GO) test -race -count=1 ./...
	$(GO) test -run 'ZeroAlloc' -count=1 .
	$(GO) test -run 'WALAppendSteadyStateAllocs|WALGroupSyncAllocs|VersionStringAlloc' -count=1 ./internal/kvstore/
	$(GO) test -run 'MetricsEndpoint|MetricsWriter|RegisteredMetricsSources' -count=1 ./internal/web/
	$(GO) test -run 'PhaseMetricsExposition' -count=1 ./internal/abd/
	$(GO) test -race -run 'TestActivationEndHook' -count=1 ./internal/core/
	$(GO) test -run 'TestZeroDelayDeliveredDirectly' -count=1 ./internal/timer/
	$(GO) test -run 'TestWarmGetsIssueNoTimerRequests|TestLoneGetFlushesInFoundActivation|TestShrunkBudgetRearmsEarlier|TestBackstopFlushesWhenQueueNeverDrains|TestBatchChurnStress|TestCoordinatorCoalescesConcurrentOps' -count=1 ./internal/abd/
	$(GO) test -run 'ZeroAlloc|Pooled' -count=1 ./internal/network/ ./internal/abd/ ./internal/handoff/ ./internal/fd/ ./internal/cyclon/ ./internal/ring/ ./internal/bootstrap/ ./internal/monitor/
	$(GO) test -run 'TCPSteadyStateAllocs' -count=1 ./internal/network/
	$(GO) test -run 'SteadyStateNoGobFallback' -count=1 ./internal/cats/
	$(MAKE) kvbench-smoke
	$(MAKE) determinism
	$(MAKE) chaos
	$(MAKE) gray
	$(MAKE) codecswap
	$(MAKE) recovery
	$(MAKE) bench-gate
