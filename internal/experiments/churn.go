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
	Crashes   int           // sequential crash→restart cycles (default 3)
	Flaps     int           // symmetric link flaps (default 4)
	CrashDown time.Duration // how long a crashed node stays off the network (default 8s)
	FlapDown  time.Duration // how long a flapped link stays down (default 900ms)
	OpWindow  time.Duration // virtual-time window the workload and churn are spread over (default 60s)
	Tail      time.Duration // settle time after the window before the audit reads (default 25s)

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

// chaosTimings are simTimings with a 6s suspicion threshold, 3 silent 2s
// rounds. The chaos and recovery crash windows exceed it, so crashed nodes
// are evicted, groups reconfigure, and handoff must carry state across. In
// a durable cluster acks are fsync-gated (sync=always) and a WAL over
// snapshotBytes checkpoints; a memory-only cluster ignores both.
func chaosTimings(snapshotBytes int64) cats.NodeConfig {
	cfg := simTimings
	cfg.FDInterval = 2 * time.Second
	cfg.FDSuspectAfterMisses = 3
	cfg.WALSync = kvstore.SyncAlways
	cfg.WALSnapshotBytes = snapshotBytes
	return cfg
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

// auditHistory checks a recorded client history: history holds the
// resolved ops in completion order, unresolved the invocations that never
// completed. Failed or unresolved puts may or may not have taken effect,
// so they enter the per-key linearizability history as writes with an
// unconstrained response time; failed gets observed nothing and are
// excluded. The audit reads are the gets from history[auditFrom:]: per key
// in keys with an acknowledged write, the final read must succeed and find
// a value (one of the acked writes, or a later unacked write's — still not
// a loss).
func auditHistory(history, unresolved []cats.OpRecord, auditFrom int, keys []string) HistoryAudit {
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

// traceEveryOp samples every operation into a private span ring of the
// given size, so a report can cite any op's timeline; restore puts the
// process-wide ring and sampling rate back.
func traceEveryOp(size int) (ring *tracing.Ring, restore func()) {
	ring = tracing.NewRing(size)
	prevRing := tracing.SwapDefault(ring)
	prevSample := tracing.SetSampleEvery(1)
	return ring, func() {
		tracing.SetSampleEvery(prevSample)
		tracing.SwapDefault(prevRing)
	}
}

// scheduleKeyOps schedules opsPerKey operations per key at coordinators
// drawn at random, spread uniformly over window. The first op of a key is
// a put in the window's first quarter, so every key exists; after that a
// putFrac share are puts. Value i of key k is "v-k-i", suffixed "-"+pad
// when pad is set. Ops can land mid-fault: coordinators may be isolated,
// quorum members unreachable — that is the point.
func scheduleKeyOps(c *cats.SimCluster, rng *rand.Rand, keys []string, opsPerKey int, window time.Duration, putFrac float64, pad string) {
	type op struct {
		at time.Duration
		ev core.Event
	}
	var ops []op
	for k, key := range keys {
		for i := 0; i < opsPerKey; i++ {
			at := time.Duration(rng.Int63n(int64(window)))
			if i == 0 {
				at = time.Duration(rng.Int63n(int64(window) / 4))
			}
			node := ident.Key(rng.Uint64())
			if i == 0 || rng.Float64() < putFrac {
				val := "v-" + strconv.Itoa(k) + "-" + strconv.Itoa(i)
				if pad != "" {
					val += "-" + pad
				}
				ops = append(ops, op{at, cats.OpPut{NodeKey: node, Key: key, Value: []byte(val)}})
			} else {
				ops = append(ops, op{at, cats.OpGet{NodeKey: node, Key: key}})
			}
		}
	}
	sort.SliceStable(ops, func(i, j int) bool { return ops[i].at < ops[j].at })
	for _, o := range ops {
		c.Schedule(o.at, o.ev)
	}
}

// scheduleCrashes schedules n crash→restart cycles of random nodes, one
// per equal slice of span, each dark for down. Windows shorter than a
// slice never overlap, so at most one replica per group is dark at a time
// (replication 3 tolerates one).
func scheduleCrashes(c *cats.SimCluster, rng *rand.Rand, n int, span, down time.Duration) {
	refs := c.Host.AliveNodes()
	spacing := span / time.Duration(n+1)
	for i := 0; i < n; i++ {
		at := spacing*time.Duration(i+1) + time.Duration(rng.Int63n(int64(spacing)/4))
		victim := refs[rng.Intn(len(refs))].Addr
		c.Sim.ScheduleAt(at, func() { c.Emu.Crash(victim) })
		c.Sim.ScheduleAt(at+down, func() { c.Emu.Restart(victim) })
	}
}

// scheduleFlaps schedules n symmetric link outages between random node
// pairs at random points of [from, from+span), each healing after down.
// A draw that pairs a node with itself is skipped.
func scheduleFlaps(c *cats.SimCluster, rng *rand.Rand, n int, from, span, down time.Duration) {
	refs := c.Host.AliveNodes()
	for i := 0; i < n; i++ {
		at := from + time.Duration(rng.Int63n(int64(span)))
		a := refs[rng.Intn(len(refs))].Addr
		b := refs[rng.Intn(len(refs))].Addr
		if a == b {
			continue
		}
		c.Sim.ScheduleAt(at, func() {
			c.Emu.FlapLink(a, b, down)
			c.Emu.FlapLink(b, a, down)
		})
	}
}

// scheduleAudit schedules one read per key at a random coordinator, at
// the current instant, and returns the history index the audit reads
// start from.
func scheduleAudit(c *cats.SimCluster, rng *rand.Rand, keys []string) int {
	from := len(c.Host.OpHistory())
	for _, key := range keys {
		c.Schedule(0, cats.OpGet{NodeKey: ident.Key(rng.Uint64()), Key: key})
	}
	return from
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

	// The violation report must be able to cite any op's timeline.
	ring, restore := traceEveryOp(1 << 16)
	defer restore()

	// A durable run snapshots every 4 KiB of WAL, so even a short run
	// truncates logs under churn.
	nodeCfg := chaosTimings(1 << 12)

	handoffBefore := handoff.GlobalMetrics()
	kvBefore := kvstore.GlobalMetrics()

	c := cats.NewSimCluster(seed, nodeCfg, cfg.DataDir, simLAN(), simOpts...)
	c.Host.RecordOps = true
	c.Join(spreadKeys(cfg.Nodes))
	rng := rand.New(rand.NewSource(seed ^ 0x6368726e)) // "chrn"

	keys := make([]string, cfg.Keys)
	for k := range keys {
		keys[k] = "churn-" + string(rune('a'+k%26)) + "-" + strconv.Itoa(k)
	}
	scheduleKeyOps(c, rng, keys, cfg.OpsPerKey, cfg.OpWindow, 0.5, "")
	scheduleCrashes(c, rng, cfg.Crashes, cfg.OpWindow, cfg.CrashDown)

	// Link flaps heal by virtual-time expiry; one partition is explicitly
	// healed.
	scheduleFlaps(c, rng, cfg.Flaps, 0, cfg.OpWindow, cfg.FlapDown)
	partAt := cfg.OpWindow / 2
	refs := c.Host.AliveNodes()
	isolated := refs[rng.Intn(len(refs))].Addr
	c.Sim.ScheduleAt(partAt, func() { c.Emu.Partition(1, isolated) })
	c.Sim.ScheduleAt(partAt+cfg.FlapDown, func() { c.Emu.Heal() })

	mainStats := c.Sim.Run(cfg.OpWindow + cfg.Tail)

	// Audit phase: every fault has healed and in-flight ops have resolved
	// or timed out; one read per key must observe some acknowledged value.
	preAudit := scheduleAudit(c, rng, keys)
	auditStats := c.Sim.Run(nodeCfg.OpTimeout * 3)

	res := ChurnResult{
		Nodes:             cfg.Nodes,
		Keys:              cfg.Keys,
		HistoryAudit:      auditHistory(c.Host.OpHistory(), c.Host.UnresolvedOps(), preAudit, keys),
		SimulatedDuration: mainStats.SimulatedDuration + auditStats.SimulatedDuration,
		DiscreteEvents:    mainStats.DiscreteEvents + auditStats.DiscreteEvents,
		HandlerExecutions: mainStats.HandlerExecutions + auditStats.HandlerExecutions,
	}
	res.Crashes, res.Restarts, res.Flaps, res.ChurnDropped = c.Emu.ChurnStats()
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

	for _, ref := range c.Host.AliveNodes() {
		p, ok := c.Host.Peer(ref.Key)
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
