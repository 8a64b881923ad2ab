package main

import (
	"fmt"
	"hash"
	"hash/fnv"
	"io"
	"os"
	"slices"
	"time"

	"repro/internal/cats"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/ident"
	"repro/internal/scenario"
	"repro/internal/simulation"
)

// registry is every scenario catssim knows. A new size or variant is a
// new entry here, not a flag.
var registry = []*entry{
	{
		name: "sim", attrs: []string{"gate"}, seeds: []int64{7, 41, 1003, 22222, 987654321},
		doc: "boot, churn, lookups and put/get on 30 nodes in virtual time, every handler execution digested",
		run: runSim,
		checks: []check{
			inv("ops-completed", func(r simResult) bool { return r.Metrics.PutsOK > 0 && r.Metrics.GetsOK > 0 }),
			inv("handlers-traced", func(r simResult) bool { return r.TraceRecords > 0 }),
		},
	},
	{
		name: "chaos", attrs: []string{"gate"}, seeds: []int64{3, 77, 4242},
		doc: "quorum ops through crash-restart churn past suspicion, link flaps and a healed partition",
		run: fault("chaos", func(seed int64, _ string, opts ...simulation.SimOption) (experiments.Result, error) {
			return experiments.Churn(seed, experiments.ChurnConfig{}, opts...), nil
		}),
		checks: slices.Concat(auditChecks, churnChecks),
	},
	{
		name: "chaos-long", attrs: []string{"gate"}, seeds: []int64{11},
		doc: "chaos with outages twice the suspicion threshold: eviction, ring repair, rejoin",
		run: fault("chaos-long", func(seed int64, _ string, opts ...simulation.SimOption) (experiments.Result, error) {
			return experiments.Churn(seed, experiments.LongOutageChurnConfig(), opts...), nil
		}),
		checks: slices.Concat(auditChecks, churnChecks),
	},
	{
		name: "chaos-durable", attrs: []string{"gate"}, seeds: []int64{5}, durable: true,
		doc: "chaos on WAL-backed stores (sync=always, small snapshot threshold)",
		run: fault("chaos-durable", func(seed int64, dir string, opts ...simulation.SimOption) (experiments.Result, error) {
			return experiments.Churn(seed, experiments.ChurnConfig{DataDir: dir}, opts...), nil
		}),
		checks: slices.Concat(auditChecks, churnChecks, []check{
			inv("wal-active", func(r experiments.Result) bool { return r.WALAppends > 0 && r.WALSyncs > 0 }),
		}),
	},
	{
		name: "gray", attrs: []string{"gate"}, seeds: []int64{3, 77, 4242},
		doc: "straggler pulses and a same-instant op burst: hedges must engage",
		run: fault("gray", func(seed int64, _ string, opts ...simulation.SimOption) (experiments.Result, error) {
			return experiments.Gray(seed, opts...), nil
		}),
		checks: slices.Concat(auditChecks, []check{
			inv("gray-faults-injected", func(r experiments.Result) bool { return r.SlowWindows > 0 && r.SlowDelayed > 0 }),
			inv("hedges-fired", func(r experiments.Result) bool { return r.Hedges > 0 && r.HedgeWins > 0 }),
		}),
	},
	{
		name: "codecswap", attrs: []string{"gate"}, seeds: []int64{1, 9, 451},
		doc: "live wire-codec swaps (gob, binary, gob+zlib) and link flaps under quorum traffic",
		run: fault("codecswap", func(seed int64, _ string, opts ...simulation.SimOption) (experiments.Result, error) {
			return experiments.CodecSwap(seed, opts...), nil
		}),
		checks: slices.Concat(auditChecks, []check{
			inv("no-codec-errors", func(r experiments.Result) bool { return r.CodecErrors == 0 }),
			inv("swaps-applied", func(r experiments.Result) bool { return r.CodecSwaps > 0 }),
			inv("both-formats-on-wire", func(r experiments.Result) bool { return r.BinaryFrames > 0 && r.GobFrames > 0 }),
		}),
	},
	{
		name: "recovery", attrs: []string{"gate"}, seeds: []int64{3, 21, 99}, durable: true,
		doc:   "SIGKILL a durable cluster mid-churn, rebuild it from WAL + snapshots in a new process",
		crash: experiments.RecoveryCrash,
		// The recover child rebuilds the cluster from nothing but the data
		// directory the SIGKILLed crash child left (see
		// internal/experiments/recovery.go). The (crash, recover) pair is
		// the deterministic unit: the recover child is itself durable (the
		// audit's handoff appends to the WALs), so the runner repeats the
		// pair from an empty directory rather than the recover child alone.
		run: fault("recovery", experiments.RecoveryRecover),
		checks: slices.Concat(auditChecks, []check{
			inv("wal-replayed", func(r experiments.Result) bool { return r.WALReplayed > 0 }),
			inv("snapshots-loaded", func(r experiments.Result) bool { return r.SnapshotsLoaded > 0 }),
			inv("keys-recovered", func(r experiments.Result) bool { return r.RecoveredKeys > 0 }),
			inv("handoff-ran", func(r experiments.Result) bool { return r.HandoffTransfers > 0 }),
		}),
	},
	{
		name: "hedge", attrs: []string{"gate"}, seeds: []int64{2012},
		doc: "hedged quorum phases vs a fixed deadline under a pulsed gray replica (virtual-time p99)",
		run: runHedge,
		checks: []check{
			inv("hedges-fired", func(r experiments.HedgeBenchResult) bool { return r.Hedges > 0 && r.HedgeWins > 0 }),
			inv("no-failed-ops", func(r experiments.HedgeBenchResult) bool { return r.On.Failed == 0 && r.Off.Failed == 0 }),
			inv("p99-improves", func(r experiments.HedgeBenchResult) bool { return r.On.P99 < r.Off.P99 }),
			inv("p99-improvement-floor", func(r experiments.HedgeBenchResult) bool {
				return r.P99Improvement >= 0.75*hedgeBaseline
			}),
		},
	},
	{
		name: "local", attrs: []string{"paper"}, seeds: []int64{42}, wallClock: true,
		doc: "the sim scenario in real time over the in-process loopback network (Figure 12 right)",
		run: runLocal,
	},
	{
		name: "table1", attrs: []string{"paper"}, seeds: []int64{2012}, wallClock: true,
		doc: "Table 1: simulation time compression vs peers",
		run: runTable1,
	},
	{
		name: "latency", attrs: []string{"paper"}, wallClock: true,
		doc: "C1: end-to-end op latency on an in-process cluster (sub-ms claim)",
		run: runLatency,
	},
	{
		name: "scaling", attrs: []string{"paper"}, seeds: []int64{2012}, wallClock: true,
		doc: "C2: read throughput vs cluster size (simulated, closed loop)",
		run: runScaling,
	},
	{
		name: "stealing", attrs: []string{"paper"}, wallClock: true,
		doc: "C3: work-stealing batch ablation, steal-one vs steal-half",
		run: runStealing,
	},
}

// Sizes of the sim and local entries.
const (
	simBoot, simChurn, simLookups, simOps = 30, 10, 200, 100
	simTail                               = 10 * time.Second
)

// simTimings are the node timings the sim and local entries change from
// the shipped NodeConfig.
var simTimings = cats.NodeConfig{
	FDInterval:        200 * time.Millisecond,
	StabilizePeriod:   300 * time.Millisecond,
	CyclonPeriod:      500 * time.Millisecond,
	RouterEntryTTL:    10 * time.Second,
	RouterSweepPeriod: 2 * time.Second,
}

// simResult is what the sim entry's invariants read.
type simResult struct {
	Metrics      cats.Metrics
	TraceRecords uint64
}

// buildScenario composes the paper's boot → churn ∥ lookups scenario with
// an additional put/get process at the sim sizes. Drawn 16-bit identifiers
// are scaled onto the 64-bit ring.
func buildScenario() *scenario.Scenario {
	catsJoin := func(id uint64) core.Event { return cats.JoinNode{Key: ident.Key(id << 48)} }
	catsFail := func(id uint64) core.Event { return cats.FailNode{Key: ident.Key(id << 48)} }
	catsLookup := func(node, key uint64) core.Event {
		return cats.OpLookup{NodeKey: ident.Key(node << 48), Target: ident.Key(key << 48)}
	}
	catsPut := func(node, key uint64) core.Event {
		return cats.OpPut{NodeKey: ident.Key(node << 48), Key: fmt.Sprintf("key-%d", key), Value: []byte("value")}
	}
	catsGet := func(node, key uint64) core.Event {
		return cats.OpGet{NodeKey: ident.Key(node << 48), Key: fmt.Sprintf("key-%d", key)}
	}

	bootP := scenario.NewProcess("boot").
		EventInterArrivalTime(scenario.ExponentialDuration(500 * time.Millisecond))
	scenario.Raise1(bootP, simBoot, catsJoin, scenario.UniformBits(16))

	churnP := scenario.NewProcess("churn").
		EventInterArrivalTime(scenario.ExponentialDuration(500 * time.Millisecond))
	scenario.Raise1(churnP, simChurn/2, catsJoin, scenario.UniformBits(16))
	scenario.Raise1(churnP, simChurn/2, catsFail, scenario.UniformBits(16))

	lookupsP := scenario.NewProcess("lookups").
		EventInterArrivalTime(scenario.NormalDuration(50*time.Millisecond, 10*time.Millisecond))
	scenario.Raise2(lookupsP, simLookups, catsLookup, scenario.UniformBits(16), scenario.UniformBits(14))

	opsP := scenario.NewProcess("ops").
		EventInterArrivalTime(scenario.NormalDuration(100*time.Millisecond, 20*time.Millisecond))
	scenario.Raise2(opsP, simOps/2, catsPut, scenario.UniformBits(16), scenario.UniformBits(10))
	scenario.Raise2(opsP, simOps/2, catsGet, scenario.UniformBits(16), scenario.UniformBits(10))

	sc := scenario.New().
		Start(bootP).
		StartAfterTerminationOf(churnP, 2*time.Second, bootP).
		StartAfterStartOf(lookupsP, 3*time.Second, churnP).
		StartAfterStartOf(opsP, 3*time.Second, churnP)
	sc.TerminateAfterTerminationOf(time.Second, lookupsP)
	return sc
}

func runSim(w io.Writer, seed int64, _ string) (any, error) {
	sched, err := buildScenario().Generate(seed)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(w, "catssim: scenario has %d commands over %v (seed %d)\n",
		len(sched.Events), sched.End.Round(time.Millisecond), seed)
	digest := newTraceDigest()
	c := cats.NewSimCluster(seed, simTimings, "",
		[]simulation.EmulatorOption{simulation.WithLatency(simulation.UniformLatency(time.Millisecond, 10*time.Millisecond))},
		simulation.WithTraceSink(digest))
	end := scenario.ExecuteSimulated(c.Sim, sched, c.Exp)
	stats := c.Sim.Run(end + simTail)
	m := c.Host.Metrics()
	fmt.Fprintf(w, "  joins=%d fails=%d alive=%d skipped=%d\n", m.Joins, m.Fails, c.Host.AliveCount(), m.Skipped)
	fmt.Fprintf(w, "  lookups=%d (empty=%d) puts=%d ok / %d failed, gets=%d ok / %d failed\n",
		m.Lookups, m.LookupsEmpty, m.PutsOK, m.PutsFailed, m.GetsOK, m.GetsFailed)
	if n, mean, min, max := m.LatencyStats(); n > 0 {
		fmt.Fprintf(w, "  op latency: n=%d mean=%v min=%v max=%v\n", n, mean, min, max)
	}
	fmt.Fprintf(w, "  simulated=%v discrete-events=%d handler-execs=%d\n",
		stats.SimulatedDuration, stats.DiscreteEvents, stats.HandlerExecutions)
	fmt.Fprintf(os.Stderr, "  wall=%v compression=%.2fx\n", stats.WallDuration, stats.Compression())
	fmt.Fprintf(w, "  trace: records=%d digest=%016x\n", digest.n, digest.h.Sum64())
	return simResult{Metrics: m, TraceRecords: digest.n}, nil
}

// traceDigest is a core.TraceSink that folds every handler execution —
// virtual timestamp, component path, event type, handler name — into one
// FNV-1a hash. Two simulation runs are behaviorally identical iff their
// record counts and digests match; a full trace dump would be millions of
// lines.
type traceDigest struct {
	n uint64
	h hash.Hash64
}

func newTraceDigest() *traceDigest { return &traceDigest{h: fnv.New64a()} }

func (t *traceDigest) Record(r core.TraceRecord) {
	t.n++
	comp := ""
	if r.Component != nil {
		comp = r.Component.Path()
	}
	fmt.Fprintf(t.h, "%d|%s|%v|%s|%d\n", r.At.UnixNano(), comp, r.Event, r.Handler, r.Handlers)
}

// auditChecks are the invariants every fault entry declares: the recorded
// history is linearizable, every acknowledged write survives to the audit,
// the workload completed puts and gets, and every op was traced, so
// timelines assembled.
var auditChecks = []check{
	inv("linearizable", func(r experiments.Result) bool { return r.Linearizable }),
	inv("no-lost-acked-writes", func(r experiments.Result) bool { return r.LostAckedWrites == 0 }),
	inv("ops-completed", func(r experiments.Result) bool { return r.AckedPuts > 0 && r.OKGets > 0 }),
	inv("timelines-assembled", func(r experiments.Result) bool { return r.TraceTimelines > 0 }),
}

// churnChecks are what every chaos entry adds. Every crash restarts, and
// the faults dropped traffic. Fault windows exceed the suspicion
// threshold, so groups must have reconfigured: epochs advanced and handoff
// ran. The survivors' stores must hold keys in at least one shard.
var churnChecks = []check{
	inv("churn-injected", func(r experiments.Result) bool { return r.Crashes > 0 && r.Restarts == r.Crashes }),
	inv("churn-dropped-traffic", func(r experiments.Result) bool { return r.ChurnDropped > 0 }),
	inv("stores-populated", func(r experiments.Result) bool { return r.StoreKeys > 0 && r.StoreShardsInUse > 0 }),
	inv("handoff-ran", func(r experiments.Result) bool { return r.HandoffTransfers > 0 }),
	inv("epoch-advanced", func(r experiments.Result) bool { return r.MaxEpoch > 0 }),
}

// fault is the run function of a fault entry: it runs the scenario with
// every handler execution digested and prints the one fault report, whose
// lines read zero where the scenario does not exercise them. A failed
// audit names its keys and cites the implicated ops' cross-node timelines
// on stderr.
func fault(name string, scenario func(seed int64, dir string, opts ...simulation.SimOption) (experiments.Result, error)) func(io.Writer, int64, string) (any, error) {
	return func(w io.Writer, seed int64, dir string) (any, error) {
		digest := newTraceDigest()
		r, err := scenario(seed, dir, simulation.WithTraceSink(digest))
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(w, "catssim %s: seed=%d nodes=%d keys=%d simulated=%v events=%d execs=%d\n",
			name, seed, r.Nodes, r.Keys, r.SimulatedDuration, r.DiscreteEvents, r.HandlerExecutions)
		fmt.Fprintf(w, "  acked_puts=%d ok_gets=%d failed_puts=%d failed_gets=%d unresolved=%d audit_ok=%d audit_failed=%d\n",
			r.AckedPuts, r.OKGets, r.FailedPuts, r.FailedGets, r.UnresolvedOps, r.AuditOK, r.AuditFailed)
		fmt.Fprintf(w, "  faults: crashes=%d restarts=%d flaps=%d churn_dropped=%d slow_windows=%d slow_delayed=%d\n",
			r.Crashes, r.Restarts, r.Flaps, r.ChurnDropped, r.SlowWindows, r.SlowDelayed)
		fmt.Fprintf(w, "  codecs: codec_swaps=%d binary_frames=%d gob_frames=%d codec_errors=%d\n",
			r.CodecSwaps, r.BinaryFrames, r.GobFrames, r.CodecErrors)
		fmt.Fprintf(w, "  resilience: hedges=%d hedge_wins=%d retries=%d slow_hints=%d\n",
			r.Hedges, r.HedgeWins, r.Retries, r.SlowHints)
		fmt.Fprintf(w, "  handoff: handoff_keys=%d handoff_bytes=%d handoff_transfers=%d max_epoch=%d\n",
			r.HandoffKeys, r.HandoffBytes, r.HandoffTransfers, r.MaxEpoch)
		fmt.Fprintf(w, "  store: store_keys=%d store_shards_in_use=%d\n", r.StoreKeys, r.StoreShardsInUse)
		fmt.Fprintf(w, "  durability: wal_appends=%d wal_syncs=%d wal_snapshots=%d wal_replays=%d wal_errors=%d\n",
			r.WALAppends, r.WALSyncs, r.WALSnapshots, r.WALReplays, r.WALErrors)
		fmt.Fprintf(w, "  recovered: snapshots_loaded=%d snapshot_entries=%d wal_replayed=%d torn_tails=%d recovered_keys=%d\n",
			r.SnapshotsLoaded, r.SnapshotEntries, r.WALReplayed, r.TornTails, r.RecoveredKeys)
		fmt.Fprintf(w, "  linearizable=%t lost_acked_writes=%d\n", r.Linearizable, r.LostAckedWrites)
		fmt.Fprintf(w, "  spans=%d timelines=%d cross_node=%d restart_traces=%d trace_digest=%016x\n",
			r.TraceSpans, r.TraceTimelines, r.CrossNodeTraces, r.RestartTraces, r.TraceDigest)
		fmt.Fprintf(w, "  trace: records=%d digest=%016x\n", digest.n, digest.h.Sum64())

		if r.NonLinearizableKey != "" {
			fmt.Fprintf(os.Stderr, "catssim: non-linearizable key: %s\n", r.NonLinearizableKey)
		}
		for _, k := range r.LostKeys {
			fmt.Fprintf(os.Stderr, "catssim: lost acked writes on key: %s\n", k)
		}
		for _, tl := range r.ViolationTimelines() {
			fmt.Fprintf(os.Stderr, "catssim %s: implicated op: trace=%s %s key=%s outcome=%s restarts=%d nodes=%v spans=%d\n",
				name, tl.TraceHex, tl.Name, tl.Key, tl.Outcome, tl.Restarts, tl.Nodes, len(tl.Spans))
			for _, s := range tl.Spans {
				fmt.Fprintf(os.Stderr, "    %-14s %-10s attempt=%d epoch=%d node=%s span=%016x parent=%016x link=%016x\n",
					s.Name, s.Outcome, s.Attempt, s.Epoch, s.Node, s.ID, s.Parent, s.Link)
			}
		}
		return r, nil
	}
}

// hedgeBaseline is the p99 improvement (unhedged p99 / hedged p99) the
// hedge entry measures at seed 2012; its p99-improvement-floor invariant
// fails below 75 % of it.
const hedgeBaseline = 33.0

// runHedge runs the gray-replica tail-latency A/B: a pulsed-straggler
// workload in virtual time with hedged quorum phases off vs on
// (experiments.HedgeBench). The invariants fail when no hedges fired (an
// inert A/B proves nothing), when any measured op failed, when the hedged
// arm no longer beats the unhedged p99 at all, or when the improvement
// drops below 75 % of hedgeBaseline.
//
// The floor needs no headroom for machine noise: latencies are virtual, so
// the profile is a deterministic function of the seed on any machine. The
// "off" arm is the fixed-deadline coordinator, DeadlineFloor = OpTimeout:
// the floor clamps every peer deadline to OpTimeout, the hedge
// checkpoint (a third of the attempt budget) is never past one, and no
// hedge can fire (pinned by TestFixedDeadlineNeverHedges in internal/abd).
// At seed 2012 off p99 ≈ 303.8ms (the first attempt's full budget rides
// out the 300ms straggler) and on p99 ≈ 9.2ms (the hedge checkpoint fires
// after the pulse window and the duplicate wins): ~33×.
func runHedge(w io.Writer, seed int64, _ string) (any, error) {
	fmt.Fprintln(w, "== C8: hedged quorum phases vs a gray-failing replica (A/B) ==")
	fmt.Fprintln(w, "   (2-node cluster, every replica group is both nodes: pulsing the")
	fmt.Fprintln(w, "    non-coordinator slow stalls each phase at quorum-minus-one, which")
	fmt.Fprintln(w, "    is the hedge trigger; \"off\" is the fixed-deadline coordinator, every")
	fmt.Fprintln(w, "    peer deadline pinned to OpTimeout; virtual-time latencies, deterministic")
	fmt.Fprintln(w, "    per seed)")
	fmt.Fprintln(w)
	r := experiments.HedgeBench(seed)
	fmt.Fprintf(w, "%10s  %8s  %12s  %12s  %12s\n", "Hedging", "Ops", "P50", "P99", "Max")
	for _, a := range []struct {
		name string
		arm  experiments.HedgeArm
	}{{"off", r.Off}, {"on", r.On}} {
		fmt.Fprintf(w, "%10s  %8d  %12v  %12v  %12v\n", a.name, a.arm.Ops,
			a.arm.P50.Round(time.Microsecond), a.arm.P99.Round(time.Microsecond), a.arm.Max.Round(time.Microsecond))
	}
	fmt.Fprintf(w, "\n   hedges=%d wins=%d  p99 improvement: %.1fx\n", r.Hedges, r.HedgeWins, r.P99Improvement)
	return r, nil
}
