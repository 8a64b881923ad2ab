package experiments

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"sort"
	"strconv"
	"time"

	"repro/internal/abd"
	"repro/internal/cats"
	"repro/internal/core"
	"repro/internal/handoff"
	"repro/internal/ident"
	"repro/internal/kvstore"
	"repro/internal/linear"
	"repro/internal/simulation"
	"repro/internal/tracing"
)

// Result is what every fault scenario reports: the verdict over the
// recorded client history, what the emulator's fault injection did, the
// counters and sums its invariants read, and the rollup of its trace
// ring. A field that a scenario does not exercise reads zero.
type Result struct {
	Nodes int // nodes booted
	Keys  int // keys the audit read
	HistoryAudit
	simulation.FaultStats

	SimulatedDuration time.Duration
	DiscreteEvents    uint64
	HandlerExecutions uint64

	// Deltas of the process-wide counters over the run, so they are
	// per-seed deterministic. MaxEpoch is the highest replica-group epoch
	// any node reached.
	HandoffKeys, HandoffBytes, HandoffTransfers, MaxEpoch     uint64
	WALAppends, WALSyncs, WALReplays, WALSnapshots, WALErrors uint64
	Retries, Hedges, HedgeWins                                uint64

	// Sums over the nodes alive when the run ends: keys held and store
	// shards holding at least one, slow-peer hints their failure detectors
	// took, and what their durable stores rebuilt from disk at boot.
	StoreKeys, StoreShardsInUse                                             int
	SlowHints                                                               uint64
	SnapshotsLoaded, SnapshotEntries, WALReplayed, TornTails, RecoveredKeys int

	// Every op is sampled into a private span ring, so a violation report
	// can cite the offending op's cross-node timeline, not a bare verdict.
	TraceSpans      int
	TraceTimelines  int
	CrossNodeTraces int    // timelines with spans from >= 2 nodes
	RestartTraces   int    // timelines that crossed >= 1 epoch restart
	TraceDigest     uint64 // TimelineDigest of Timelines
	Timelines       []tracing.Timeline
}

// HistoryAudit is the verdict over a recorded client history: op outcome
// counts, per-key linearizability, and the lost-acknowledged-write audit.
type HistoryAudit struct {
	AckedPuts, FailedPuts int
	OKGets, FailedGets    int
	UnresolvedOps         int
	AuditOK, AuditFailed  int // outcomes of the final audit reads
	Linearizable          bool
	NonLinearizableKey    string
	LostAckedWrites       int // keys whose acked writes the final audit read could not observe
	LostKeys              []string
}

// faultSpec is one fault scenario: the cluster it boots, and a setup hook
// that schedules its workload and faults and names its audit.
type faultSpec struct {
	nodes    []ident.Key
	cfg      cats.NodeConfig
	dataDir  string                      // non-empty: durable stores under it
	emu      []simulation.EmulatorOption // after simLAN's latency model
	salt     int64                       // the scenario RNG's seed is seed ^ salt
	window   time.Duration               // workload, faults and settling
	auditFor time.Duration               // how long the audit reads get

	// setup runs on the joined cluster before the window and returns the
	// audit reads, one per key, issued once the window has passed.
	setup func(c *cats.SimCluster, rng *rand.Rand) []cats.OpGet
}

// runFaults runs one fault scenario: boot, the window, the audit reads,
// then the Result of the whole recorded history.
func runFaults(seed int64, s faultSpec, simOpts []simulation.SimOption) Result {
	r := boot(seed, s, simOpts)
	reads := s.setup(r.c, rand.New(rand.NewSource(seed^s.salt)))
	r.run(s.window)
	from := r.audit(reads, s.auditFor)
	return r.result(r.c.Host.OpHistory(), r.c.Host.UnresolvedOps(), from, reads)
}

// faultRun is a fault scenario in flight.
type faultRun struct {
	c       *cats.SimCluster
	nodes   int
	ring    *tracing.Ring
	restore func()
	before  counters
	stats   simulation.Stats
}

// boot starts a run of s: it samples every op into a private span ring,
// reads the process-wide counters, and joins s's nodes into a cluster
// that records every op.
func boot(seed int64, s faultSpec, simOpts []simulation.SimOption) *faultRun {
	r := &faultRun{nodes: len(s.nodes)}
	r.ring, r.restore = traceEveryOp(1 << 16)
	r.before = readCounters()
	r.c = cats.NewSimCluster(seed, s.cfg, s.dataDir, simLAN(s.emu...), simOpts...)
	r.c.Host.RecordOps = true
	r.c.Join(s.nodes)
	return r
}

// run advances virtual time by d.
func (r *faultRun) run(d time.Duration) {
	s := r.c.Sim.Run(d)
	r.stats.SimulatedDuration += s.SimulatedDuration
	r.stats.DiscreteEvents += s.DiscreteEvents
	r.stats.HandlerExecutions += s.HandlerExecutions
}

// audit issues reads at the current instant and runs d; it returns the
// history index the reads start from.
func (r *faultRun) audit(reads []cats.OpGet, d time.Duration) int {
	from := len(r.c.Host.OpHistory())
	for _, g := range reads {
		r.c.Schedule(0, g)
	}
	r.run(d)
	return from
}

// result ends the run. It audits history, whose audit reads start at
// auditFrom, takes the counter deltas and the per-node sums, rolls up the
// span ring, and puts the process-wide ring back.
func (r *faultRun) result(history, unresolved []cats.OpRecord, auditFrom int, reads []cats.OpGet) Result {
	defer r.restore()
	keys := make([]string, len(reads))
	for i, g := range reads {
		keys[i] = g.Key
	}
	res := Result{
		Nodes:             r.nodes,
		Keys:              len(keys),
		HistoryAudit:      auditHistory(history, unresolved, auditFrom, keys),
		FaultStats:        r.c.Emu.FaultStats(),
		SimulatedDuration: r.stats.SimulatedDuration,
		DiscreteEvents:    r.stats.DiscreteEvents,
		HandlerExecutions: r.stats.HandlerExecutions,
	}

	b, a := r.before, readCounters()
	res.HandoffKeys = a.handoff.Keys - b.handoff.Keys
	res.HandoffBytes = a.handoff.Bytes - b.handoff.Bytes
	res.HandoffTransfers = a.handoff.Transfers - b.handoff.Transfers
	res.MaxEpoch = a.handoff.Epoch
	res.WALAppends = a.kv.WALAppends - b.kv.WALAppends
	res.WALSyncs = a.kv.WALSyncs - b.kv.WALSyncs
	res.WALReplays = a.kv.WALReplays - b.kv.WALReplays
	res.WALSnapshots = a.kv.Snapshots - b.kv.Snapshots
	res.WALErrors = a.kv.WALErrors - b.kv.WALErrors
	res.Retries = a.abd.Retries - b.abd.Retries
	res.Hedges = a.abd.Hedges - b.abd.Hedges
	res.HedgeWins = a.abd.HedgeWins - b.abd.HedgeWins

	for _, ref := range r.c.Host.AliveNodes() {
		p, ok := r.c.Host.Peer(ref.Key)
		if !ok || p.Node == nil {
			continue
		}
		store := p.Node.ABD.Store()
		res.StoreKeys += store.Len()
		for i := 0; i < store.NumShards(); i++ {
			if store.ShardLen(i) > 0 {
				res.StoreShardsInUse++
			}
		}
		res.SlowHints += p.Node.FD.SlowHints()
		if durable := p.Node.Store(); durable != nil {
			rec := durable.Recovery()
			res.SnapshotsLoaded += rec.SnapshotsLoaded
			res.SnapshotEntries += rec.SnapshotEntries
			res.WALReplayed += rec.WALEntries
			res.TornTails += rec.TornTails
			res.RecoveredKeys += rec.Keys
		}
	}

	res.Timelines = tracing.Assemble(r.ring.Snapshot())
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

// counters is one reading of the process-wide counters a Result reports
// deltas of.
type counters struct {
	handoff handoff.Metrics
	kv      kvstore.Metrics
	abd     abd.ResilienceMetrics
}

func readCounters() counters {
	return counters{handoff.GlobalMetrics(), kvstore.GlobalMetrics(), abd.GlobalResilienceMetrics()}
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
			if r.OK {
				a.AuditOK++
			} else {
				a.AuditFailed++
			}
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

// auditReads returns one read per key, each at a coordinator drawn from
// rng.
func auditReads(rng *rand.Rand, keys []string) []cats.OpGet {
	reads := make([]cats.OpGet, len(keys))
	for i, key := range keys {
		reads[i] = cats.OpGet{NodeKey: ident.Key(rng.Uint64()), Key: key}
	}
	return reads
}

// TimelineDigest folds assembled timelines into one FNV-1a fingerprint.
// Under the deterministic simulation a seed fixes the spans, their IDs,
// and their virtual timestamps, so the digest is byte-stable across
// same-seed runs — the gate runner's two-run comparison diffs it.
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
func (r Result) ViolationTimelines() []tracing.Timeline {
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
