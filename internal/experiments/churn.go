package experiments

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"sort"
	"strconv"
	"time"

	"repro/internal/cats"
	"repro/internal/core"
	"repro/internal/handoff"
	"repro/internal/ident"
	"repro/internal/kvstore"
	"repro/internal/linear"
	"repro/internal/simulation"
	"repro/internal/tracing"
)

// ChurnConfig parameterizes the chaos scenario: a simulated CATS cluster
// serving quorum reads and writes while nodes crash and restart and links
// flap and heal underneath it.
type ChurnConfig struct {
	Nodes     int           // cluster size (default 6)
	Keys      int           // distinct data keys under test (default 6)
	OpsPerKey int           // put/get operations per key, excluding the final audit read (default 10)
	Crashes   int           // sequential crash→restart cycles (default 4)
	Flaps     int           // symmetric link flaps (default 4)
	CrashDown time.Duration // how long a crashed node stays off the network (default 1200ms)
	FlapDown  time.Duration // how long a flapped link stays down (default 900ms)
	OpWindow  time.Duration // virtual-time window the workload and churn are spread over (default 40s)
	Tail      time.Duration // settle time after the window before the audit reads (default 20s)

	// DataDir, when non-empty, runs every node on a durable store
	// (per-node WAL + snapshots under this root, sync=always) so the
	// chaos scenario also exercises the write-ahead path under churn.
	// For a deterministic two-run diff the directory must start empty
	// each run — recovery replay of a previous run's state shifts the
	// WAL counters.
	DataDir string
}

func (c *ChurnConfig) applyDefaults() {
	if c.Nodes <= 0 {
		c.Nodes = 6
	}
	if c.Keys <= 0 {
		c.Keys = 6
	}
	if c.OpsPerKey <= 0 {
		c.OpsPerKey = 10
	}
	if c.Crashes <= 0 {
		c.Crashes = 3
	}
	if c.Flaps <= 0 {
		c.Flaps = 4
	}
	if c.CrashDown <= 0 {
		// Longer than the 6s suspicion threshold (FDInterval 2s × 3
		// misses): crashed nodes ARE evicted, groups reconfigure, and the
		// epoch/handoff machinery must carry state across — the case the
		// scenario exists to prove.
		c.CrashDown = 8 * time.Second
	}
	if c.FlapDown <= 0 {
		c.FlapDown = 900 * time.Millisecond
	}
	if c.OpWindow <= 0 {
		c.OpWindow = 60 * time.Second
	}
	if c.Tail <= 0 {
		c.Tail = 25 * time.Second
	}
}

// LongOutageChurnConfig is the chaos variant with outages double the
// suspicion threshold: fewer, longer crash windows, so evicted nodes sit
// dark long enough for several stabilization rounds to repair the ring
// around them before they rejoin and pull state back.
func LongOutageChurnConfig() ChurnConfig {
	return ChurnConfig{
		Crashes:   2,
		CrashDown: 12 * time.Second,
		OpWindow:  60 * time.Second,
		Tail:      30 * time.Second,
	}
}

// ChurnResult reports the scenario outcome.
type ChurnResult struct {
	Nodes, Keys int
	HistoryAudit

	Crashes, Restarts   uint64
	Flaps, ChurnDropped uint64
	SimulatedDuration   time.Duration
	DiscreteEvents      uint64
	HandlerExecutions   uint64

	// State-handoff activity during the scenario (deltas of the
	// process-wide counters, so they are per-seed deterministic).
	HandoffKeys      uint64
	HandoffBytes     uint64
	HandoffTransfers uint64
	// MaxEpoch is the highest replica-group epoch any node reached.
	MaxEpoch uint64

	// Durability activity during the scenario (deltas of the process-wide
	// WAL counters; all zero when DataDir is unset).
	WALAppends   uint64
	WALSyncs     uint64
	WALReplays   uint64
	WALSnapshots uint64
	WALErrors    uint64

	// Sharded-store occupancy after the audit, summed over alive nodes:
	// convergence must leave the survivors' stores populated, spread across
	// shards (not collapsed into one by a broken hash split).
	StoreKeys          int
	StoreShardsInUse   int
	StoreMaxShardShare float64 // largest single-shard fraction of any store

	// Tracing: the chaos run samples every operation into a private span
	// ring so a violation report can cite the offending op's cross-node
	// timeline rather than a bare verdict.
	TraceSpans      int
	TraceTimelines  int
	CrossNodeTraces int    // timelines with spans from >= 2 nodes
	RestartTraces   int    // timelines that crossed >= 1 epoch restart
	TraceDigest     uint64 // FNV-1a over all timelines; per-seed deterministic
	Timelines       []tracing.Timeline
}

// HistoryAudit is the client-history verdict every fault-injection
// scenario reports: op outcome counts, per-key linearizability of the
// recorded history, and the lost-acknowledged-write audit.
type HistoryAudit struct {
	AckedPuts, FailedPuts int
	OKGets, FailedGets    int
	UnresolvedOps         int
	Linearizable          bool
	NonLinearizableKey    string
	LostAckedWrites       int // keys whose acked writes the final audit read could not observe
	LostKeys              []string
}

// auditHistory checks the ops the host recorded. Failed or unresolved
// puts may or may not have taken effect, so they enter the per-key
// linearizability history as writes with an unconstrained response time;
// failed gets observed nothing and are excluded. The audit reads are the
// gets recorded from index auditFrom on: per key in keys with an
// acknowledged write, the final read must succeed and find a value (one of
// the acked writes, or a later unacked write's — still not a loss).
func auditHistory(host *cats.Simulator, auditFrom int, keys []string) HistoryAudit {
	history := host.OpHistory()
	unresolved := host.UnresolvedOps()
	a := HistoryAudit{UnresolvedOps: len(unresolved)}
	hist := make(map[string][]linear.Op)
	acked := make(map[string]bool)
	addPut := func(r cats.OpRecord, end int64) {
		hist[r.Key] = append(hist[r.Key], linear.Op{
			Kind: linear.Write, Value: r.Value, Start: r.Start.UnixNano(), End: end,
		})
	}
	for _, r := range history {
		switch r.Kind {
		case "put":
			if r.OK {
				a.AckedPuts++
				acked[r.Key] = true
				addPut(r, r.End.UnixNano())
			} else {
				a.FailedPuts++
				addPut(r, math.MaxInt64)
			}
		case "get":
			if r.OK {
				a.OKGets++
				hist[r.Key] = append(hist[r.Key], linear.Op{
					Kind: linear.Read, Value: r.Value, Found: r.Found,
					Start: r.Start.UnixNano(), End: r.End.UnixNano(),
				})
			} else {
				a.FailedGets++
			}
		}
	}
	for _, r := range unresolved {
		if r.Kind == "put" {
			addPut(r, math.MaxInt64)
		}
	}
	a.Linearizable, a.NonLinearizableKey = linear.CheckPerKey(hist)

	finalRead := make(map[string]cats.OpRecord)
	for _, r := range history[auditFrom:] {
		if r.Kind == "get" {
			finalRead[r.Key] = r
		}
	}
	for _, key := range keys {
		if !acked[key] {
			continue
		}
		if r, ok := finalRead[key]; !ok || !r.OK || !r.Found {
			a.LostAckedWrites++
			a.LostKeys = append(a.LostKeys, key)
		}
	}
	return a
}

// TimelineDigest folds assembled timelines into one FNV-1a fingerprint.
// Under the deterministic simulation a seed fixes the spans, their IDs,
// and their virtual timestamps, so the digest is byte-stable across
// same-seed runs — the chaos determinism check diffs it.
func TimelineDigest(tls []tracing.Timeline) uint64 {
	h := fnv.New64a()
	for _, tl := range tls {
		fmt.Fprintf(h, "t %016x %s %s %s %d %v\n",
			tl.Trace, tl.Name, tl.Key, tl.Outcome, tl.Restarts, tl.Nodes)
		for _, s := range tl.Spans {
			fmt.Fprintf(h, "s %016x %016x %016x %s %s %s %d %d %d %d\n",
				s.ID, s.Parent, s.Link, s.Node, s.Name, s.Outcome,
				s.Attempt, s.Epoch, s.Start.UnixNano(), s.End.UnixNano())
		}
	}
	return h.Sum64()
}

// ViolationTimelines returns the timelines of the operations implicated in
// a failed run: every traced op on the non-linearizable key and on keys
// whose acknowledged writes the audit lost. Empty on a clean run.
func (r ChurnResult) ViolationTimelines() []tracing.Timeline {
	bad := map[string]bool{}
	if r.NonLinearizableKey != "" {
		bad[r.NonLinearizableKey] = true
	}
	for _, k := range r.LostKeys {
		bad[k] = true
	}
	if len(bad) == 0 {
		return nil
	}
	var out []tracing.Timeline
	for _, tl := range r.Timelines {
		if bad[tl.Key] {
			out = append(out, tl)
		}
	}
	return out
}

// Churn runs the chaos scenario: quorum puts/gets over a simulated CATS
// cluster while the network emulator injects crash-restart churn and link
// flaps, all in virtual time from one seed. It returns the recorded
// history's linearizability verdict and an explicit lost-acknowledged-write
// audit (after every fault heals, a final read per key must observe some
// acknowledged value).
//
// Default fault windows EXCEED the failure detector's suspicion threshold
// (FDInterval × SuspectAfterMisses = 6s): the ring evicts the crashed
// node, replica groups reconfigure into a new epoch, and the handoff
// component pulls the covered ranges before the survivors ack in it. The
// zero-lost-acked-writes audit therefore exercises the full
// reconfiguration path — epoch fencing, state transfer, and rejoin of the
// evicted node — not just transport resilience.
func Churn(seed int64, cfg ChurnConfig, simOpts ...simulation.SimOption) ChurnResult {
	cfg.applyDefaults()

	// Trace every operation into a private ring for the run's duration:
	// the violation report must be able to cite any op's timeline, and the
	// process-wide ring and sampling rate must come back untouched.
	ring := tracing.NewRing(1 << 16)
	prevRing := tracing.SwapDefault(ring)
	prevSample := tracing.SetSampleEvery(1)
	defer func() {
		tracing.SetSampleEvery(prevSample)
		tracing.SwapDefault(prevRing)
	}()

	nodeCfg := simNodeConfig()
	// Suspicion threshold: 3 consecutive silent 2s rounds. Crash windows
	// (default 8s) overlap more than three round starts, so crashed nodes
	// are genuinely evicted and must hand state off and rejoin.
	nodeCfg.FDInterval = 2 * time.Second
	nodeCfg.FDSuspectAfterMisses = 3

	handoffBefore := handoff.GlobalMetrics()
	kvBefore := kvstore.GlobalMetrics()

	var (
		sim  *simulation.Simulation
		emu  *simulation.NetworkEmulator
		host *cats.Simulator
		exp  *core.Port
	)
	if cfg.DataDir != "" {
		// Durable chaos: WALs fsync on every ack and snapshots roll
		// aggressively so even a short run truncates logs under churn.
		nodeCfg.WALSync = kvstore.SyncAlways
		nodeCfg.WALSnapshotBytes = 1 << 12
		sim, emu, host, exp = buildDurableSimCluster(seed, spreadKeys(cfg.Nodes), nodeCfg, cfg.DataDir, nil, simOpts...)
	} else {
		sim, emu, host, exp = buildSimCluster(seed, cfg.Nodes, nodeCfg, simOpts...)
	}
	host.RecordOps = true

	refs := host.AliveNodes()
	rng := rand.New(rand.NewSource(seed ^ 0x6368726e)) // "chrn"

	// Workload: OpsPerKey operations per key (first is always a put so
	// every key exists), issued at coordinators drawn at random, spread
	// uniformly over the window. Ops can land mid-fault: coordinators may
	// be isolated, quorum members unreachable — that is the point.
	type schedOp struct {
		at time.Duration
		ev core.Event
	}
	var ops []schedOp
	keyName := func(i int) string { return "churn-" + string(rune('a'+i%26)) + "-" + strconv.Itoa(i) }
	for k := 0; k < cfg.Keys; k++ {
		key := keyName(k)
		for i := 0; i < cfg.OpsPerKey; i++ {
			at := time.Duration(rng.Int63n(int64(cfg.OpWindow)))
			if i == 0 {
				at = time.Duration(rng.Int63n(int64(cfg.OpWindow) / 4)) // seed write early
			}
			node := ident.Key(rng.Uint64())
			if i == 0 || rng.Float64() < 0.5 {
				val := []byte("v-" + strconv.Itoa(k) + "-" + strconv.Itoa(i))
				ops = append(ops, schedOp{at, cats.OpPut{NodeKey: node, Key: key, Value: val}})
			} else {
				ops = append(ops, schedOp{at, cats.OpGet{NodeKey: node, Key: key}})
			}
		}
	}
	sort.SliceStable(ops, func(i, j int) bool { return ops[i].at < ops[j].at })
	for _, op := range ops {
		ev := op.ev
		sim.ScheduleAt(op.at, "churn:op", func() { _ = core.TriggerOn(exp, ev) })
	}

	// Crash-restart churn: sequential, non-overlapping windows so at most
	// one replica per group is dark at a time (replication 3 tolerates 1).
	spacing := cfg.OpWindow / time.Duration(cfg.Crashes+1)
	for i := 0; i < cfg.Crashes; i++ {
		at := spacing*time.Duration(i+1) + time.Duration(rng.Int63n(int64(spacing)/4))
		victim := refs[rng.Intn(len(refs))].Addr
		sim.ScheduleAt(at, "churn:crash", func() { emu.Crash(victim) })
		sim.ScheduleAt(at+cfg.CrashDown, "churn:restart", func() { emu.Restart(victim) })
	}

	// Link flaps: symmetric src↔dst outages that heal by virtual-time
	// expiry, plus one partition that is explicitly healed.
	for i := 0; i < cfg.Flaps; i++ {
		at := time.Duration(rng.Int63n(int64(cfg.OpWindow)))
		a := refs[rng.Intn(len(refs))].Addr
		b := refs[rng.Intn(len(refs))].Addr
		if a == b {
			continue
		}
		down := cfg.FlapDown
		sim.ScheduleAt(at, "churn:flap", func() {
			emu.FlapLink(a, b, down)
			emu.FlapLink(b, a, down)
		})
	}
	partAt := cfg.OpWindow / 2
	isolated := refs[rng.Intn(len(refs))].Addr
	sim.ScheduleAt(partAt, "churn:partition", func() { emu.Partition(1, isolated) })
	sim.ScheduleAt(partAt+cfg.FlapDown, "churn:heal", func() { emu.Heal() })

	mainStats := sim.Run(cfg.OpWindow + cfg.Tail)

	// Audit phase: every fault has healed and in-flight ops have resolved
	// or timed out; one read per key must observe some acknowledged value.
	preAudit := len(host.OpHistory())
	keys := make([]string, 0, cfg.Keys)
	for k := 0; k < cfg.Keys; k++ {
		keys = append(keys, keyName(k))
	}
	for _, key := range keys {
		k := key
		sim.ScheduleAt(0, "churn:audit", func() {
			_ = core.TriggerOn(exp, cats.OpGet{NodeKey: ident.Key(rng.Uint64()), Key: k})
		})
	}
	auditStats := sim.Run(nodeCfg.OpTimeout * 3)

	res := ChurnResult{
		Nodes:             cfg.Nodes,
		Keys:              cfg.Keys,
		HistoryAudit:      auditHistory(host, preAudit, keys),
		SimulatedDuration: mainStats.SimulatedDuration + auditStats.SimulatedDuration,
		DiscreteEvents:    mainStats.DiscreteEvents + auditStats.DiscreteEvents,
		HandlerExecutions: mainStats.HandlerExecutions + auditStats.HandlerExecutions,
	}
	res.Crashes, res.Restarts, res.Flaps, res.ChurnDropped = emu.ChurnStats()
	handoffAfter := handoff.GlobalMetrics()
	res.HandoffKeys = handoffAfter.Keys - handoffBefore.Keys
	res.HandoffBytes = handoffAfter.Bytes - handoffBefore.Bytes
	res.HandoffTransfers = handoffAfter.Transfers - handoffBefore.Transfers
	res.MaxEpoch = handoffAfter.Epoch
	kvAfter := kvstore.GlobalMetrics()
	res.WALAppends = kvAfter.WALAppends - kvBefore.WALAppends
	res.WALSyncs = kvAfter.WALSyncs - kvBefore.WALSyncs
	res.WALReplays = kvAfter.WALReplays - kvBefore.WALReplays
	res.WALSnapshots = kvAfter.Snapshots - kvBefore.Snapshots
	res.WALErrors = kvAfter.WALErrors - kvBefore.WALErrors

	for _, ref := range host.AliveNodes() {
		p, ok := host.Peer(ref.Key)
		if !ok || p.Node == nil {
			continue
		}
		store := p.Node.ABD.Store()
		keys := store.Len()
		res.StoreKeys += keys
		for i := 0; i < store.NumShards(); i++ {
			n := store.ShardLen(i)
			if n > 0 {
				res.StoreShardsInUse++
				res.StoreMaxShardShare = max(res.StoreMaxShardShare, float64(n)/float64(keys))
			}
		}
	}

	// Assemble the run's trace rollup from the private ring.
	res.Timelines = tracing.Assemble(ring.Snapshot())
	res.TraceTimelines = len(res.Timelines)
	for _, tl := range res.Timelines {
		res.TraceSpans += len(tl.Spans)
		if len(tl.Nodes) >= 2 {
			res.CrossNodeTraces++
		}
		if tl.Restarts > 0 {
			res.RestartTraces++
		}
	}
	res.TraceDigest = TimelineDigest(res.Timelines)
	return res
}
