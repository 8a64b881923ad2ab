GO ?= go

# Benchmark knobs for bench-dispatch. Fixed -cpu keeps runs comparable
# across machines and against CI; override per invocation, e.g.
#   make bench-dispatch BENCHTIME=3s BENCHCPU=8
BENCHTIME ?= 1s
BENCHCPU ?= 4

.PHONY: all help build vet test test-race core-stress bench bench-dispatch kvbench-smoke scenarios fuzz alloc ci ci-local

all: build

help:
	@echo "Targets:"
	@echo "  build           go build ./..."
	@echo "  vet             go vet ./..."
	@echo "  test            go test ./..."
	@echo "  test-race       go test -race ./... (deque/routing-cache stress tests)"
	@echo "  core-stress     internal/core 50x at -cpu 1,2,4 and 10x under -race: the"
	@echo "                  hold/unplug/resume and swap ordering tests are concurrent;"
	@echo "                  plus the WAL group-commit vs checkpoint race and the TCP"
	@echo "                  reconnect/retransmit tests, 20x under -race"
	@echo "  bench           every microbenchmark (the paper's tables: catssim run paper)"
	@echo "  bench-dispatch  hot-path microbenchmarks only: dispatch, fan-out,"
	@echo "                  ping-pong, deque. Pinned -benchtime $(BENCHTIME) -cpu $(BENCHCPU);"
	@echo "                  override with BENCHTIME=... BENCHCPU=..."
	@echo "  kvbench-smoke   vet + test the bench/kvbench module (its own go.mod, unseen by"
	@echo "                  ./...) and run its four workloads at smoke sizes"
	@echo "  scenarios       catssim run gate: every gate scenario at its registered"
	@echo "                  seeds, twice each in fresh processes, reports byte-identical"
	@echo "                  and named invariants held (catssim list gate); then the"
	@echo "                  real-time kvcluster example"
	@echo "  fuzz            binary frame and WAL decoder fuzz targets, 30s each"
	@echo "  alloc           the CI alloc job: allocation gates on the hot paths"
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

# The CI core-stress job (CI runs this target). The channel reconfiguration tests
# (hold/resume and swap under concurrent traffic) race producers against
# reconfiguration, so one pass proves little: repeat them across scheduler
# widths, and under the race detector. The TCP reconnect and retransmit
# tests race a redial against live traffic the same way.
core-stress:
	$(GO) test -count=50 -cpu 1,2,4 ./internal/core
	$(GO) test -race -count=10 ./internal/core
	$(GO) test -race -count=20 -run 'TestGroupSyncRacesCheckpoint' ./internal/kvstore
	$(GO) test -race -count=20 -run 'TestTCPQueuedFramesSurviveReconnect|TestTCPFailedFlushRetransmitsInOrder' ./internal/network

# Every microbenchmark. The paper's evaluation tables are catssim's paper
# entries (go run ./cmd/catssim run paper), not benchmarks.
bench:
	$(GO) test -run '^$$' -bench . -benchmem ./...

# Just the hot-path microbenchmarks: dispatch allocs, broadcast fan-out, and
# deque throughput. -benchtime and -cpu are pinned (see BENCHTIME/BENCHCPU
# above) so results are comparable between local runs and the CI artifact.
bench-dispatch:
	$(GO) test -run '^$$' -bench 'BenchmarkEventDispatch|BenchmarkDispatchAllocs|BenchmarkPingPongRoundTrip|BenchmarkChannelFanout|BenchmarkFanout' -benchmem -benchtime $(BENCHTIME) -cpu $(BENCHCPU) -count=3 .
	$(GO) test -run '^$$' -bench 'BenchmarkWSDeque|BenchmarkStealPingPong' -benchmem -benchtime $(BENCHTIME) -cpu $(BENCHCPU) -count=3 ./internal/core/

# The CI kvbench job (CI runs this target). bench/kvbench is its own module
# (replace repro => ../..), so the root ./... patterns never compile it:
# deleting an exported name it uses stays green everywhere else. The smoke
# run exits non-zero when an operation fails or verification does.
kvbench-smoke:
	$(GO) -C bench/kvbench vet ./...
	$(GO) -C bench/kvbench test -count=1 ./...
	bash bench/kvbench/run.sh -smoke -seed 7

# The CI scenarios job (CI runs this target): every entry `catssim list gate`
# prints, each seed twice in fresh processes, reports diffed and the
# invariants the registry declares checked by catssim itself
# (TestFaultGatesInProcess checks the same invariants in go test). Reports
# go to stdout. The kvcluster example, the one real-time cluster run
# outside go test, exits 1 on a failed op.
scenarios:
	$(GO) run ./cmd/catssim run gate
	$(GO) run ./examples/kvcluster

# Binary frame decoder fuzz targets (the CI fuzz job runs this target): the
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

# The CI alloc job (CI runs this target; -v so the log lists every gate):
# the zero-alloc hot paths, the quorum path's serve, warm-get and pong
# ceilings, the TCP socket loops, the experiment host's op routing, the
# WAL, metrics exposition and the Timer-free quorum path.
alloc:
	$(GO) test -run 'ZeroAlloc' -v -count=1 .
	$(GO) test -run 'ZeroAlloc|Pooled' -v -count=1 ./internal/network/ ./internal/abd/ ./internal/handoff/ ./internal/fd/ ./internal/cyclon/ ./internal/ring/ ./internal/bootstrap/ ./internal/monitor/ ./internal/simulation/
	$(GO) test -run 'TestServeReadsAllocs|TestLocalReadServeAllocs|TestPongAllocs' -v -count=1 ./internal/abd/ ./internal/fd/
	$(GO) test -run 'TCPSteadyStateAllocs' -v -count=1 ./internal/network/
	$(GO) test -run 'SteadyStateNoGobFallback|TestSimulatorResolveZeroAlloc' -v -count=1 ./internal/cats/
	$(GO) test -run 'WALAppendSteadyStateAllocs|WALGroupSyncAllocs|VersionStringAlloc' -v -count=1 ./internal/kvstore/
	$(GO) test -run 'MetricsEndpoint|MetricsWriter|RegisteredMetricsSources|RollupWriter|Parse' -v -count=1 ./internal/web/...
	$(GO) test -run 'PhaseMetricsExposition' -v -count=1 ./internal/abd/
	$(GO) test -run 'FederatorMergesFamilies' -v -count=1 ./internal/monitor/
	$(GO) test -run 'MetricsExpositionWellFormed|RollupIsUnlabeledExposition' -v -count=1 ./internal/cats/
	$(GO) test -race -run 'TestActivationEndHook' -v -count=1 ./internal/core/
	$(GO) test -run 'TestZeroDelayDeliveredDirectly' -v -count=1 ./internal/timer/
	$(GO) test -run 'TestWarmGetsIssueNoTimerRequests|TestLoneGetFlushesInRequestActivation|TestLoneGetCoordinatorExecutions|TestShrunkBudgetRearmsEarlier|TestRetryBackoffRidesDeadlineHeap|TestBackstopFlushesWhenQueueNeverDrains|TestBatchChurnStress|TestCoordinatorCoalescesConcurrentOps' -v -count=1 ./internal/abd/

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
	$(MAKE) alloc
	$(MAKE) kvbench-smoke
	$(MAKE) scenarios
	$(MAKE) fuzz
