// catsbench regenerates the paper's evaluation artifacts (DESIGN.md §3)
// and prints them as paper-style tables:
//
//	catsbench -exp table1    # Table 1: simulation time compression vs peers
//	catsbench -exp latency   # C1: end-to-end op latency (sub-ms claim)
//	catsbench -exp scaling   # C2: read throughput vs cluster size
//	catsbench -exp stealing  # C3: work-stealing batch ablation
//	catsbench -exp million   # C5: 1M-key sharded-store open-loop profile
//	catsbench -exp wal       # C7: durability (WAL sync policy) A/B
//	catsbench -exp hedge     # C8: hedged quorum phases vs a gray replica A/B
//	catsbench -exp codec     # C9: wire codec A/B (gob+zlib vs binary)
//	catsbench -exp all
//
// -json-dir writes a machine-readable BENCH_<name>.json per experiment so
// the perf trajectory is tracked across changes; -gate compares the C5
// profile against a checked-in baseline and exits non-zero on regression.
//
// Absolute numbers depend on the machine; the shapes (monotone
// compression decay, sub-millisecond latency, near-linear scaling, batch
// advantage) are the reproduction targets. Use -quick for a fast pass.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/experiments"
)

func main() {
	var (
		exp       = flag.String("exp", "all", "experiment: table1 | latency | scaling | stealing | trace | million | wal | hedge | codec | all")
		seed      = flag.Int64("seed", 2012, "random seed")
		quick     = flag.Bool("quick", false, "smaller sizes for a fast pass")
		jsonDir   = flag.String("json-dir", "", "directory to write BENCH_<name>.json results into")
		gate      = flag.String("gate", "", "baseline BENCH_million.json to gate the million profile against (>10% ops/s regression fails)")
		walGate   = flag.String("wal-gate", "", "baseline BENCH_wal.json to gate the durability-on (sync=always) throughput against (>10% regression fails)")
		hedgeGate = flag.String("hedge-gate", "", "baseline BENCH_hedge.json to gate the hedging tail-latency improvement against (inert hedging or lost improvement fails)")
		codecGate = flag.String("codec-gate", "", "baseline BENCH_codec.json to gate the binary wire codec against (inert binary arm, lost gob+zlib advantage, or >10% loopback regression fails)")
	)
	flag.Parse()

	run := map[string]bool{}
	if *exp == "all" {
		run["table1"], run["latency"], run["scaling"], run["stealing"] = true, true, true, true
		run["trace"], run["million"], run["wal"] = true, true, true
		run["hedge"], run["codec"] = true, true
	} else {
		run[*exp] = true
	}
	any := false
	if run["table1"] {
		table1(*seed, *quick)
		any = true
	}
	if run["latency"] {
		latency(*quick)
		any = true
	}
	if run["scaling"] {
		scaling(*seed, *quick)
		any = true
	}
	if run["stealing"] {
		stealing(*quick)
		any = true
	}
	if run["trace"] {
		traceOverhead(*quick, *jsonDir)
		any = true
	}
	if run["million"] {
		million(*quick, *jsonDir, *gate)
		any = true
	}
	if run["wal"] {
		wal(*quick, *jsonDir, *walGate)
		any = true
	}
	if run["hedge"] {
		hedge(*seed, *jsonDir, *hedgeGate)
		any = true
	}
	if run["codec"] {
		codecBench(*quick, *jsonDir, *codecGate)
		any = true
	}
	if !any {
		fmt.Fprintf(os.Stderr, "catsbench: unknown experiment %q\n", *exp)
		os.Exit(1)
	}
}

func table1(seed int64, quick bool) {
	peerCounts := []int{64, 128, 256, 512, 1024}
	simTime := 60 * time.Second
	if quick {
		peerCounts = []int{64, 128, 256}
		simTime = 20 * time.Second
	}
	fmt.Println("== Table 1: time compression when simulating the system ==")
	fmt.Printf("   (paper: 4275 s simulated; 64 peers → 475x ... 8192 peers → 2.01x, ~1x at 16384)\n")
	fmt.Printf("   (here: %v simulated per row, steady-state lookup workload)\n\n", simTime)
	fmt.Printf("%8s  %14s  %14s  %12s  %12s\n", "Peers", "Simulated", "Wall", "Compression", "Events")
	for _, n := range peerCounts {
		r := experiments.Table1(seed, n, simTime)
		fmt.Printf("%8d  %14v  %14v  %11.2fx  %12d\n",
			r.Peers, r.SimulatedDuration.Round(time.Millisecond),
			r.WallDuration.Round(time.Millisecond), r.Compression, r.DiscreteEvents)
	}
	fmt.Println()
}

func latency(quick bool) {
	ops := 2000
	if quick {
		ops = 400
	}
	fmt.Println("== C1: end-to-end operation latency, in-process cluster ==")
	fmt.Println("   (paper: sub-millisecond get/put on LAN, replication degree 5, incl.")
	fmt.Println("    2 quorum round-trips, 4x serialization, 4x deserialization)")
	fmt.Println()
	fmt.Printf("%6s %5s %13s %10s  %10s  %10s  %10s  %10s  %8s\n",
		"Nodes", "Repl", "Codec", "ValueSize", "Mean", "P50", "P99", "Max", "<1ms")
	for _, r := range []experiments.LatencyResult{
		experiments.Latency(8, 3, 1024, ops, experiments.CodecStream),
		experiments.Latency(8, 5, 1024, ops, experiments.CodecStream),
		experiments.Latency(8, 5, 1024, ops, experiments.CodecPerMessage),
		experiments.Latency(8, 5, 1024, ops, experiments.CodecPerMessageZlib),
	} {
		fmt.Printf("%6d %5d %13s %10d  %10v  %10v  %10v  %10v  %7.1f%%\n",
			r.Nodes, r.Replication, r.Codec, r.ValueSize,
			r.Mean.Round(time.Microsecond), r.P50.Round(time.Microsecond),
			r.P99.Round(time.Microsecond), r.Max.Round(time.Microsecond),
			100*r.SubMilli)
	}
	fmt.Println()
}

func scaling(seed int64, quick bool) {
	sizes := []int{8, 16, 32, 48, 64, 96}
	opsPerNode := 400
	if quick {
		sizes = []int{8, 16, 32}
		opsPerNode = 150
	}
	fmt.Println("== C2: read throughput vs cluster size (simulated, closed loop) ==")
	fmt.Println("   (paper: read-intensive 1 KiB workload scaled to 96 machines at ~100,000 reads/s;")
	fmt.Println("    the reproduction target is the near-linear shape, not the absolute rate)")
	fmt.Println()
	fmt.Printf("%8s  %10s  %8s  %16s  %14s  %12s\n",
		"Nodes", "Ops", "Failed", "Aggregate ops/s", "Per-node ops/s", "Mean latency")
	base := 0.0
	for _, n := range sizes {
		r := experiments.Scaling(seed, n, 8, opsPerNode)
		scaleNote := ""
		if base == 0 {
			base = r.ThroughputPS / float64(r.Nodes)
		} else {
			scaleNote = fmt.Sprintf("  (%.2fx linear)", r.PerNodePS/base)
		}
		fmt.Printf("%8d  %10d  %8d  %16.0f  %14.0f  %12v%s\n",
			r.Nodes, r.Ops, r.Failed, r.ThroughputPS, r.PerNodePS,
			r.MeanLatency.Round(100*time.Microsecond), scaleNote)
	}
	fmt.Println()
}

func stealing(quick bool) {
	components, events := 512, 2000
	if quick {
		components, events = 256, 500
	}
	// At least 4 workers so the stealing machinery engages even on hosts
	// with few cores (on a single-core host this measures the mechanism's
	// behaviour and overhead, not parallel speedup).
	workers := runtime.NumCPU()
	if workers < 4 {
		workers = 4
	}
	fmt.Println("== C3: work-stealing batch ablation ==")
	fmt.Println("   (paper: stealing a batch of half the victim's ready components shows a")
	fmt.Println("    considerable improvement over stealing small numbers; all readiness is")
	fmt.Println("    placed on one worker queue to maximize stealing pressure)")
	fmt.Println()
	fmt.Printf("%8s  %6s  %10s  %12s  %12s  %10s  %10s\n",
		"Workers", "Batch", "Events", "Wall", "Events/ms", "Steals", "Stolen")
	for _, batchHalf := range []bool{false, true} {
		r := experiments.Stealing(workers, components, events, batchHalf)
		fmt.Printf("%8d  %6s  %10d  %12v  %12.0f  %10d  %10d\n",
			r.Workers, r.Batch, r.Events, r.Wall.Round(time.Millisecond),
			r.EventsPerMS, r.Steals, r.Stolen)
	}
	fmt.Println()
}

// benchJSON is the machine-readable result record written per experiment:
// one flat object so downstream tooling can diff runs without schema
// knowledge.
type benchJSON struct {
	Name        string  `json:"name"`
	OpsPS       float64 `json:"ops_ps"`
	P50Micros   float64 `json:"p50_us"`
	P99Micros   float64 `json:"p99_us"`
	AllocsPerOp float64 `json:"allocs_per_op"`

	// A/B extras: the reference arm (tracing off, memory store, fixed
	// deadlines) and the measured arm's change against it.
	LegacyOpsPS  float64 `json:"legacy_ops_ps,omitempty"`
	Improvement  float64 `json:"improvement,omitempty"`
	LegacyP50Mic float64 `json:"legacy_p50_us,omitempty"`
	LegacyP99Mic float64 `json:"legacy_p99_us,omitempty"`

	// Hedge A/B extras (virtual-time, deterministic per seed).
	Hedges    uint64 `json:"hedges,omitempty"`
	HedgeWins uint64 `json:"hedge_wins,omitempty"`

	// Million-key extras.
	Keys           int     `json:"keys,omitempty"`
	Failed         uint64  `json:"failed,omitempty"`
	HeapBeforeMB   float64 `json:"heap_before_mb,omitempty"`
	HeapAfterMB    float64 `json:"heap_after_mb,omitempty"`
	NonEmptyShards int     `json:"non_empty_shards,omitempty"`
	MinShardKeys   int     `json:"min_shard_keys,omitempty"`
	MaxShardKeys   int     `json:"max_shard_keys,omitempty"`
}

// writeJSON emits BENCH_<name>.json into dir (no-op when dir is empty).
func writeJSON(dir string, rec benchJSON) {
	if dir == "" {
		return
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "catsbench: json dir: %v\n", err)
		os.Exit(1)
	}
	path := filepath.Join(dir, "BENCH_"+rec.Name+".json")
	b, _ := json.MarshalIndent(rec, "", "  ")
	if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "catsbench: write %s: %v\n", path, err)
		os.Exit(1)
	}
	fmt.Printf("   wrote %s\n\n", path)
}

// traceOverhead measures the span layer's cost on the quorum workload at
// three sampling rates. The acceptance gate is on default sampling: within
// 3% of tracing-off throughput.
func traceOverhead(quick bool, jsonDir string) {
	clients, ops, rounds := 48, 4000, 3
	if quick {
		clients, ops, rounds = 32, 1200, 2
	}
	fmt.Println("== C6: distributed-tracing overhead on the quorum workload (A/B/C) ==")
	fmt.Println("   (3 nodes at replication degree 3, closed-loop clients, run at three sampling")
	fmt.Println("    rates with rounds interleaved in rotating order so drift cancels;")
	fmt.Println("    unsampled ops must stay allocation-free, so 1-in-64 should be noise)")
	fmt.Println()
	r := experiments.QuorumTraceAB(3, clients, ops, rounds)
	fmt.Printf("%12s  %12s  %10s  %10s  %10s  %10s\n", "Sampling", "ops/s", "P50", "P99", "Spans", "vs off")
	arm := func(name string, a experiments.QuorumTraceArm, overhead float64, gated string) {
		fmt.Printf("%12s  %12.0f  %10v  %10v  %10d  %9.1f%%%s\n", name, a.OpsPS,
			a.P50.Round(time.Microsecond), a.P99.Round(time.Microsecond), a.Spans, 100*overhead, gated)
	}
	arm("off", r.Off, 0, "")
	gated := "  (gate <=3%)"
	arm("1-in-64", r.Sampled, r.SampledOverhead, gated)
	arm("always", r.Always, r.AlwaysOverhead, "")
	rps := func(name string, a experiments.QuorumTraceArm) {
		fmt.Printf("   per-round ops/s %-8s", name)
		for _, ps := range a.RoundPS {
			fmt.Printf(" %8.0f", ps)
		}
		fmt.Println()
	}
	rps("off:", r.Off)
	rps("1-in-64:", r.Sampled)
	rps("always:", r.Always)
	fmt.Println()
	writeJSON(jsonDir, benchJSON{
		Name:         "trace",
		OpsPS:        r.Sampled.OpsPS,
		P50Micros:    float64(r.Sampled.P50.Microseconds()),
		P99Micros:    float64(r.Sampled.P99.Microseconds()),
		LegacyOpsPS:  r.Off.OpsPS,
		Improvement:  -r.SampledOverhead,
		LegacyP50Mic: float64(r.Off.P50.Microseconds()),
		LegacyP99Mic: float64(r.Off.P99.Microseconds()),
	})
}

func million(quick bool, jsonDir, gate string) {
	keys, ops, rate := 1_000_000, 30_000, 1_500
	if quick {
		keys, ops, rate = 100_000, 6_000, 1_500
	}
	fmt.Println("== C5: sharded store under a large keyspace (open loop) ==")
	fmt.Printf("   (%d keys preloaded per replica, %d ops issued at %d ops/s against the\n", keys, ops, rate)
	fmt.Println("    full keyspace; open-loop, so latencies include queueing)")
	fmt.Println()
	r := experiments.MillionKV(keys, ops, rate)
	fmt.Printf("   done=%d failed=%d  ops/s=%.0f  P50=%v P99=%v  allocs/op=%.0f\n",
		r.Done, r.Failed, r.OpsPS, r.P50.Round(time.Microsecond), r.P99.Round(time.Microsecond), r.AllocsPerOp)
	fmt.Printf("   heap: %.1f MiB -> %.1f MiB   shards: %d/%d non-empty, %d..%d keys (store total %d)\n\n",
		r.HeapBeforeMB, r.HeapAfterMB, r.NonEmptyShards, 16, r.MinShardKeys, r.MaxShardKeys, r.ShardKeys)
	rec := benchJSON{
		Name:           "million",
		OpsPS:          r.OpsPS,
		P50Micros:      float64(r.P50.Microseconds()),
		P99Micros:      float64(r.P99.Microseconds()),
		AllocsPerOp:    r.AllocsPerOp,
		Keys:           r.Keys,
		Failed:         r.Failed,
		HeapBeforeMB:   r.HeapBeforeMB,
		HeapAfterMB:    r.HeapAfterMB,
		NonEmptyShards: r.NonEmptyShards,
		MinShardKeys:   r.MinShardKeys,
		MaxShardKeys:   r.MaxShardKeys,
	}
	writeJSON(jsonDir, rec)
	if gate != "" {
		gateMillion(gate, rec)
	}
}

// wal runs the durability A/B: the same write-heavy closed-loop workload
// against the in-memory store and against the per-shard WAL under each
// sync policy, on a real loopback cluster with framed per-message codecs.
func wal(quick bool, jsonDir, gate string) {
	clients, ops, rounds := 48, 4000, 3
	if quick {
		clients, ops, rounds = 32, 1200, 2
	}
	fmt.Println("== C7: per-shard WAL durability cost (A/B across sync policies) ==")
	fmt.Println("   (3 nodes at replication degree 3, write-heavy closed loop; every")
	fmt.Println("    acked put is WAL-appended on all replicas before the ack, so the")
	fmt.Println("    arms price the append alone (never), group commit (interval, 2ms)")
	fmt.Println("    and fsync-per-append (always) against no durability at all (mem);")
	fmt.Println("    rounds rotate arm order so machine drift cancels)")
	fmt.Println()
	r, err := experiments.WALBench(clients, ops, rounds, "")
	if err != nil {
		fmt.Fprintf(os.Stderr, "catsbench: wal: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("%10s  %12s  %10s  %10s  %12s  %12s  %10s\n",
		"Policy", "ops/s", "P50", "P99", "WAL appends", "WAL MiB", "fsyncs")
	var memPS, alwaysPS float64
	var alwaysArm experiments.WALBenchArm
	for _, a := range r.Arms {
		fmt.Printf("%10s  %12.0f  %10v  %10v  %12d  %12.1f  %10d\n",
			a.Policy, a.OpsPS, a.P50.Round(time.Microsecond), a.P99.Round(time.Microsecond),
			a.WALAppends, float64(a.WALBytes)/(1<<20), a.WALSyncs)
		switch a.Policy {
		case "mem":
			memPS = a.OpsPS
		case "always":
			alwaysPS = a.OpsPS
			alwaysArm = a
		}
	}
	fmt.Printf("\n   durability cost: always %.1f%%, interval %.1f%% (vs mem)\n\n",
		100*r.DurabilityCost, 100*r.IntervalCost)
	writeJSON(jsonDir, benchJSON{
		Name:        "wal",
		OpsPS:       alwaysPS, // the gated number: durability-on throughput
		P50Micros:   float64(alwaysArm.P50.Microseconds()),
		P99Micros:   float64(alwaysArm.P99.Microseconds()),
		LegacyOpsPS: memPS,
		Improvement: -r.DurabilityCost,
	})
	if gate != "" {
		gateWAL(gate, alwaysPS, alwaysArm)
	}
}

// hedge runs the gray-replica tail-latency A/B: the same pulsed-straggler
// workload in virtual time with hedged quorum phases off vs on. Latencies
// are virtual, so the profile is deterministic per seed and
// machine-independent — the baseline comparison is exact, not a noisy
// wall-clock gate.
func hedge(seed int64, jsonDir, gate string) {
	fmt.Println("== C8: hedged quorum phases vs a gray-failing replica (A/B) ==")
	fmt.Println("   (2-node cluster, every replica group is both nodes: pulsing the")
	fmt.Println("    non-coordinator slow stalls each phase at quorum-minus-one, which")
	fmt.Println("    is the hedge trigger; \"off\" is the fixed-deadline coordinator, every")
	fmt.Println("    peer deadline pinned to OpTimeout; virtual-time latencies, deterministic")
	fmt.Println("    per seed)")
	fmt.Println()
	r := experiments.HedgeBench(seed, experiments.HedgeBenchConfig{})
	fmt.Printf("%10s  %8s  %12s  %12s  %12s\n", "Hedging", "Ops", "P50", "P99", "Max")
	fmt.Printf("%10s  %8d  %12v  %12v  %12v\n", "off", r.Off.Ops,
		r.Off.P50.Round(time.Microsecond), r.Off.P99.Round(time.Microsecond), r.Off.Max.Round(time.Microsecond))
	fmt.Printf("%10s  %8d  %12v  %12v  %12v\n", "on", r.On.Ops,
		r.On.P50.Round(time.Microsecond), r.On.P99.Round(time.Microsecond), r.On.Max.Round(time.Microsecond))
	fmt.Printf("\n   hedges=%d wins=%d  p99 improvement: %.1fx\n\n", r.Hedges, r.HedgeWins, r.P99Improvement)
	writeJSON(jsonDir, benchJSON{
		Name:         "hedge",
		P50Micros:    float64(r.On.P50.Microseconds()),
		P99Micros:    float64(r.On.P99.Microseconds()),
		LegacyP50Mic: float64(r.Off.P50.Microseconds()),
		LegacyP99Mic: float64(r.Off.P99.Microseconds()),
		Improvement:  r.P99Improvement,
		Hedges:       r.Hedges,
		HedgeWins:    r.HedgeWins,
	})
	if gate != "" {
		gateHedge(gate, r)
	}
}

// gateHedge fails the run when hedging is inert (no hedges fired — the
// benchmark would compare two identical arms and prove nothing), when the
// hedged arm no longer beats the unhedged tail at all, or when the p99
// improvement falls below 75% of the checked-in baseline's.
func gateHedge(baselinePath string, r experiments.HedgeBenchResult) {
	raw, err := os.ReadFile(baselinePath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "catsbench: hedge gate baseline: %v\n", err)
		os.Exit(1)
	}
	var base benchJSON
	if err := json.Unmarshal(raw, &base); err != nil {
		fmt.Fprintf(os.Stderr, "catsbench: hedge gate baseline: %v\n", err)
		os.Exit(1)
	}
	floor := 0.75 * base.Improvement
	fmt.Printf("   hedge gate: measured %.1fx p99 improvement vs baseline %.1fx (floor %.1fx)\n",
		r.P99Improvement, base.Improvement, floor)
	if r.Hedges == 0 || r.HedgeWins == 0 {
		fmt.Fprintln(os.Stderr, "catsbench: hedge gate FAIL: no hedges fired — the A/B is inert")
		os.Exit(1)
	}
	if r.On.Failed > 0 || r.Off.Failed > 0 {
		fmt.Fprintf(os.Stderr, "catsbench: hedge gate FAIL: measured ops failed (off=%d on=%d)\n", r.Off.Failed, r.On.Failed)
		os.Exit(1)
	}
	if r.On.P99 >= r.Off.P99 {
		fmt.Fprintf(os.Stderr, "catsbench: hedge gate FAIL: hedging no longer improves p99 (off=%v on=%v)\n", r.Off.P99, r.On.P99)
		os.Exit(1)
	}
	if r.P99Improvement < floor {
		fmt.Fprintf(os.Stderr, "catsbench: hedge gate FAIL: p99 improvement %.1fx below floor %.1fx\n", r.P99Improvement, floor)
		os.Exit(1)
	}
	fmt.Println("   hedge gate: PASS")
}

// gateWAL fails the run when durability-on (sync=always) throughput
// regresses more than 10% below the checked-in baseline, or when the
// run's WAL activity looks inert.
func gateWAL(baselinePath string, alwaysPS float64, arm experiments.WALBenchArm) {
	raw, err := os.ReadFile(baselinePath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "catsbench: wal gate baseline: %v\n", err)
		os.Exit(1)
	}
	var base benchJSON
	if err := json.Unmarshal(raw, &base); err != nil {
		fmt.Fprintf(os.Stderr, "catsbench: wal gate baseline: %v\n", err)
		os.Exit(1)
	}
	floor := 0.9 * base.OpsPS
	fmt.Printf("   wal gate: measured %.0f ops/s (sync=always) vs baseline %.0f (floor %.0f)\n",
		alwaysPS, base.OpsPS, floor)
	if arm.WALAppends == 0 || arm.WALSyncs == 0 {
		fmt.Fprintln(os.Stderr, "catsbench: wal gate FAIL: sync=always arm recorded no WAL activity")
		os.Exit(1)
	}
	if alwaysPS < floor {
		fmt.Fprintf(os.Stderr, "catsbench: wal gate FAIL: durability-on ops/s regressed >10%% (measured %.0f < floor %.0f)\n",
			alwaysPS, floor)
		os.Exit(1)
	}
	fmt.Println("   wal gate: PASS")
}

// gateMillion fails the run when the measured million-profile throughput
// regresses more than 10% below the checked-in baseline, or when the load
// did not complete cleanly.
func gateMillion(baselinePath string, rec benchJSON) {
	raw, err := os.ReadFile(baselinePath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "catsbench: gate baseline: %v\n", err)
		os.Exit(1)
	}
	var base benchJSON
	if err := json.Unmarshal(raw, &base); err != nil {
		fmt.Fprintf(os.Stderr, "catsbench: gate baseline: %v\n", err)
		os.Exit(1)
	}
	floor := 0.9 * base.OpsPS
	fmt.Printf("   gate: measured %.0f ops/s vs baseline %.0f (floor %.0f)\n", rec.OpsPS, base.OpsPS, floor)
	if rec.Failed > 0 {
		fmt.Fprintf(os.Stderr, "catsbench: gate FAIL: %d operations failed\n", rec.Failed)
		os.Exit(1)
	}
	if rec.OpsPS < floor {
		fmt.Fprintf(os.Stderr, "catsbench: gate FAIL: ops/s regressed >10%% (measured %.0f < floor %.0f)\n", rec.OpsPS, floor)
		os.Exit(1)
	}
	if rec.NonEmptyShards == 0 {
		fmt.Fprintln(os.Stderr, "catsbench: gate FAIL: no per-shard occupancy exported")
		os.Exit(1)
	}
	fmt.Println("   gate: PASS")
}

// codecJSON is the machine-readable record for the wire-codec A/B: the
// full four-arm result plus a name for the BENCH_<name>.json convention.
type codecJSON struct {
	Name string `json:"name"`
	experiments.CodecBenchResult
}

func codecBench(quick bool, jsonDir, gate string) {
	clients, ops, rounds := 32, 3000, 3
	if quick {
		clients, ops, rounds = 16, 800, 2
	}
	fmt.Println("== C9: wire codec A/B — gob+zlib vs zero-copy binary (quorum workload) ==")
	fmt.Println("   (same closed-loop put/get load per arm; loopback isolates codec cost,")
	fmt.Println("    TCP runs the full handshake-negotiated socket path; rounds interleave")
	fmt.Println("    codec order and a warm-up round per transport is discarded)")
	fmt.Println()
	r := experiments.CodecAB(3, clients, ops, rounds)
	fmt.Printf("%10s  %10s  %10s  %12s  %12s  %14s  %10s\n",
		"Transport", "Codec", "Ops/s", "P50", "P99", "BinaryFrames", "Fallbacks")
	for _, a := range r.Arms {
		fmt.Printf("%10s  %10s  %10.0f  %12v  %12v  %14d  %10d\n",
			a.Transport, a.Codec, a.OpsPS,
			a.P50.Round(time.Microsecond), a.P99.Round(time.Microsecond),
			a.BinaryEncoded, a.CodecFallbacks)
	}
	fmt.Printf("\n   loopback: binary vs gob+zlib %+.1f%%   tcp: %+.1f%%\n\n",
		100*r.LoopbackImprovement, 100*r.TCPImprovement)

	if jsonDir != "" {
		if err := os.MkdirAll(jsonDir, 0o755); err != nil {
			fmt.Fprintf(os.Stderr, "catsbench: json dir: %v\n", err)
			os.Exit(1)
		}
		path := filepath.Join(jsonDir, "BENCH_codec.json")
		b, _ := json.MarshalIndent(codecJSON{Name: "codec", CodecBenchResult: r}, "", "  ")
		if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "catsbench: write %s: %v\n", path, err)
			os.Exit(1)
		}
		fmt.Printf("   wrote %s\n\n", path)
	}
	if gate != "" {
		gateCodec(gate, r)
	}
}

// gateCodec fails the run when the binary codec comparison is inert (a
// binary arm encoded zero binary frames — the swap never engaged and both
// arms measured gob), when a gob arm was contaminated with binary frames,
// when binary stops beating gob+zlib on the loopback quorum workload
// (small tolerance for machine noise), or when the loopback binary
// throughput regresses more than 10% below the checked-in baseline.
func gateCodec(baselinePath string, r experiments.CodecBenchResult) {
	raw, err := os.ReadFile(baselinePath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "catsbench: codec gate baseline: %v\n", err)
		os.Exit(1)
	}
	var base codecJSON
	if err := json.Unmarshal(raw, &base); err != nil {
		fmt.Fprintf(os.Stderr, "catsbench: codec gate baseline: %v\n", err)
		os.Exit(1)
	}
	for _, a := range r.Arms {
		switch a.Codec {
		case "binary":
			if a.BinaryEncoded == 0 {
				fmt.Fprintf(os.Stderr, "catsbench: codec gate FAIL: %s/binary arm encoded zero binary frames — A/B inert\n", a.Transport)
				os.Exit(1)
			}
		default:
			if a.BinaryEncoded != 0 {
				fmt.Fprintf(os.Stderr, "catsbench: codec gate FAIL: %s/%s arm encoded %d binary frames — arms contaminated\n",
					a.Transport, a.Codec, a.BinaryEncoded)
				os.Exit(1)
			}
		}
		if a.FailedOps != 0 {
			fmt.Fprintf(os.Stderr, "catsbench: codec gate FAIL: %s/%s arm had %d failed ops\n", a.Transport, a.Codec, a.FailedOps)
			os.Exit(1)
		}
	}
	bin := r.Arm("loopback", "binary")
	gob := r.Arm("loopback", "gob+zlib")
	if bin == nil || gob == nil {
		fmt.Fprintln(os.Stderr, "catsbench: codec gate FAIL: loopback arms missing from result")
		os.Exit(1)
	}
	// Binary must stay at least on par with gob+zlib on the quorum
	// workload; 5% tolerance absorbs shared-runner noise without letting a
	// real inversion through.
	if bin.OpsPS < 0.95*gob.OpsPS {
		fmt.Fprintf(os.Stderr, "catsbench: codec gate FAIL: loopback binary %.0f ops/s fell below gob+zlib %.0f\n",
			bin.OpsPS, gob.OpsPS)
		os.Exit(1)
	}
	var baseBin float64
	if b := base.Arm("loopback", "binary"); b != nil {
		baseBin = b.OpsPS
	}
	floor := 0.9 * baseBin
	fmt.Printf("   codec gate: loopback binary %.0f ops/s vs baseline %.0f (floor %.0f), gob+zlib %.0f\n",
		bin.OpsPS, baseBin, floor, gob.OpsPS)
	if baseBin > 0 && bin.OpsPS < floor {
		fmt.Fprintf(os.Stderr, "catsbench: codec gate FAIL: loopback binary ops/s regressed >10%% (measured %.0f < floor %.0f)\n",
			bin.OpsPS, floor)
		os.Exit(1)
	}
	fmt.Println("   codec gate: PASS")
}
