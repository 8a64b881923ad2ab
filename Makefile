GO ?= go

# Benchmark knobs for bench-dispatch. Fixed -cpu keeps runs comparable
# across machines and against CI; override per invocation, e.g.
#   make bench-dispatch BENCHTIME=3s BENCHCPU=8
BENCHTIME ?= 1s
BENCHCPU ?= 4

.PHONY: all help build vet test test-race core-stress bench bench-dispatch kvbench-smoke scenarios fuzz ci ci-local

all: build

help:
	@echo "Targets:"
	@echo "  build           go build ./..."
	@echo "  vet             go vet ./..."
	@echo "  test            go test ./..."
	@echo "  test-race       go test -race ./... (deque/routing-cache stress tests)"
	@echo "  core-stress     internal/core 50x at -cpu 1,2,4 and 10x under -race: the"
	@echo "                  hold/unplug/resume and swap ordering tests are concurrent;"
	@echo "                  plus the WAL group-commit vs checkpoint race, 20x under -race"
	@echo "  bench           full benchmark sweep (macro experiments included)"
	@echo "  bench-dispatch  hot-path microbenchmarks only: dispatch, fan-out,"
	@echo "                  ping-pong, deque. Pinned -benchtime $(BENCHTIME) -cpu $(BENCHCPU);"
	@echo "                  override with BENCHTIME=... BENCHCPU=..."
	@echo "  kvbench-smoke   vet + test the bench/kvbench module (its own go.mod, unseen by"
	@echo "                  ./...) and run its four workloads at smoke sizes"
	@echo "  scenarios       catssim run gate: every gate scenario at its registered"
	@echo "                  seeds, twice each in fresh processes, reports byte-identical"
	@echo "                  and named invariants held (catssim list gate)"
	@echo "  fuzz            binary frame and WAL decoder fuzz targets, 30s each"
	@echo "  ci              vet + build + test-race"
	@echo "  ci-local        local mirror of the CI jobs: lint (without staticcheck and"
	@echo "                  govulncheck), test, core-stress, alloc, kvbench, scenarios, fuzz"

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

# Local mirror of the CI core-stress job. The channel reconfiguration tests
# (hold/resume and swap under concurrent traffic) race producers against
# reconfiguration, so one pass proves little: repeat them across scheduler
# widths, and under the race detector.
core-stress:
	$(GO) test -count=50 -cpu 1,2,4 ./internal/core
	$(GO) test -race -count=10 ./internal/core
	$(GO) test -race -count=20 -run 'TestGroupSyncRacesCheckpoint' ./internal/kvstore

# Full benchmark sweep (experiment macro-benchmarks take seconds per run).
bench:
	$(GO) test -run '^$$' -bench . -benchmem ./...

# Just the hot-path microbenchmarks: dispatch allocs, batched fan-out, and
# deque throughput. -benchtime and -cpu are pinned (see BENCHTIME/BENCHCPU
# above) so results are comparable between local runs and the CI artifact.
bench-dispatch:
	$(GO) test -run '^$$' -bench 'BenchmarkEventDispatch|BenchmarkDispatchAllocs|BenchmarkPingPongRoundTrip|BenchmarkChannelFanout|BenchmarkFanout' -benchmem -benchtime $(BENCHTIME) -cpu $(BENCHCPU) -count=3 .
	$(GO) test -run '^$$' -bench 'BenchmarkWSDeque|BenchmarkStealPingPong' -benchmem -benchtime $(BENCHTIME) -cpu $(BENCHCPU) -count=3 ./internal/core/

# Local mirror of the CI kvbench job. bench/kvbench is its own module
# (replace repro => ../..), so the root ./... patterns never compile it:
# deleting an exported name it uses stays green everywhere else. The smoke
# run exits non-zero when an operation fails or verification does.
kvbench-smoke:
	$(GO) -C bench/kvbench vet ./...
	$(GO) -C bench/kvbench test -count=1 ./...
	bash bench/kvbench/run.sh -smoke -seed 7

# Local mirror of the CI scenarios job: every gate entry of the catssim
# registry, each seed twice in fresh processes, reports diffed and the
# named invariants checked by catssim itself. Reports go to stdout. The
# simulation example exits 1 unless its two same-seed runs match.
scenarios:
	$(GO) run ./cmd/catssim run gate
	$(GO) run ./examples/simulation

# Binary frame decoder fuzz targets (also run as 30s smoke in CI): the
# payload decoder must never panic or mis-frame on arbitrary bytes, the
# WireReader must latch at the first out-of-bounds read, and the framing
# layer must keep control prefixes and legal lengths disjoint. The WAL
# segment and snapshot decoders must keep their valid prefix replayable.
fuzz:
	$(GO) test -run '^$$' -fuzz 'FuzzDecodePayload' -fuzztime 30s ./internal/network/
	$(GO) test -run '^$$' -fuzz 'FuzzWireReader' -fuzztime 30s ./internal/network/
	$(GO) test -run '^$$' -fuzz 'FuzzFramePrefix' -fuzztime 30s ./internal/network/
	$(GO) test -run '^$$' -fuzz 'FuzzReplayWAL' -fuzztime 30s ./internal/kvstore/

ci: vet build test-race

# The CI jobs, locally and in one command, job for job: lint (vet, build,
# gofmt; staticcheck and govulncheck need a network install), test (the
# -race pass unsharded: sharding only buys wall-clock on parallel
# runners), core-stress, alloc, kvbench, scenarios and fuzz. The non-gating bench job
# is `make bench-dispatch` on two commits.
ci-local: vet build
	test -z "$$(gofmt -l .)" || { gofmt -l .; exit 1; }
	$(GO) test -count=1 ./...
	$(GO) test -race -count=1 ./...
	$(MAKE) core-stress
	$(GO) test -run 'ZeroAlloc' -count=1 .
	$(GO) test -run 'ZeroAlloc|Pooled' -count=1 ./internal/network/ ./internal/abd/ ./internal/handoff/ ./internal/fd/ ./internal/cyclon/ ./internal/ring/ ./internal/bootstrap/ ./internal/monitor/ ./internal/simulation/
	$(GO) test -run 'TCPSteadyStateAllocs' -count=1 ./internal/network/
	$(GO) test -run 'SteadyStateNoGobFallback' -count=1 ./internal/cats/
	$(GO) test -run 'WALAppendSteadyStateAllocs|WALGroupSyncAllocs|VersionStringAlloc' -count=1 ./internal/kvstore/
	$(GO) test -run 'MetricsEndpoint|MetricsWriter|RegisteredMetricsSources|RollupWriter|Parse' -count=1 ./internal/web/...
	$(GO) test -run 'PhaseMetricsExposition' -count=1 ./internal/abd/
	$(GO) test -run 'FederatorMergesFamilies' -count=1 ./internal/monitor/
	$(GO) test -run 'MetricsExpositionWellFormed|RollupIsUnlabeledExposition' -count=1 ./internal/cats/
	$(GO) test -race -run 'TestActivationEndHook' -count=1 ./internal/core/
	$(GO) test -run 'TestZeroDelayDeliveredDirectly' -count=1 ./internal/timer/
	$(GO) test -run 'TestWarmGetsIssueNoTimerRequests|TestLoneGetFlushesInRequestActivation|TestLoneGetCoordinatorExecutions|TestShrunkBudgetRearmsEarlier|TestBackstopFlushesWhenQueueNeverDrains|TestBatchChurnStress|TestCoordinatorCoalescesConcurrentOps' -count=1 ./internal/abd/
	$(MAKE) kvbench-smoke
	$(MAKE) scenarios
	$(MAKE) fuzz
