// Gray-failure scenario and hedging benchmark. Where the churn scenario
// kills nodes outright, Gray injects *slowness*: replicas that answer
// every ping but stall every quorum phase they serve. The scenario proves
// the resilience layer end to end — adaptive attempt budgets fire hedge
// checkpoints and hedged duplicates win races against pulsed stragglers —
// while the usual chaos gates (linearizability, zero lost acked writes)
// still hold, also across a synchronized same-instant burst. HedgeBench is
// the A/B half: the same straggler workload with hedging off vs on, in
// virtual time, so the p99 tail comparison is machine-independent.
package experiments

import (
	"math/rand"
	"sort"
	"strconv"
	"time"

	"repro/internal/abd"
	"repro/internal/cats"
	"repro/internal/ident"
	"repro/internal/network"
	"repro/internal/simulation"
	"repro/internal/tracing"
)

// Gray-failure scenario shape. The straggler pulse (stragglerExtra for
// stragglerPulse) is shared with HedgeBench.
const (
	grayNodes     = 5                // cluster size
	grayWarmOps   = 12               // estimator warm-up ops before any fault
	grayPulses    = 6                // straggler pulses aimed at the hedge group
	grayBurstOps  = 40               // ops issued at one virtual instant
	grayBurstKeys = 6                // distinct keys the burst spreads over
	grayTail      = 12 * time.Second // settle time before the audit reads

	stragglerExtra = 300 * time.Millisecond // extra one-way latency during a pulse
	stragglerPulse = 2 * time.Millisecond   // pulse duration, shorter than a hedge checkpoint
)

// GrayResult reports the scenario outcome.
type GrayResult struct {
	Nodes int
	HistoryAudit

	// Resilience activity (deltas of the process-wide counters).
	Retries     uint64
	Hedges      uint64
	HedgeWins   uint64
	SlowHints   uint64 // summed over the cluster's failure detectors
	SlowWindows uint64 // gray injections applied by the emulator
	SlowDelayed uint64 // messages the emulator delayed inside one

	SimulatedDuration time.Duration
	DiscreteEvents    uint64
	HandlerExecutions uint64

	TraceSpans     int
	TraceTimelines int
	TraceDigest    uint64
	Timelines      []tracing.Timeline
}

// keyOwnedBy searches deterministic key strings until one hashes into the
// ring span owned by nodeKeys[idx] — i.e. its replica group starts there.
func keyOwnedBy(nodeKeys []ident.Key, idx int, prefix string) string {
	refs := make([]ident.NodeRef, len(nodeKeys))
	for i, k := range nodeKeys {
		refs[i] = ident.NodeRef{Key: k}
	}
	sort.Slice(refs, func(i, j int) bool { return refs[i].Key < refs[j].Key })
	want := nodeKeys[idx]
	for i := 0; ; i++ {
		s := prefix + "-" + strconv.Itoa(i)
		if ident.SuccessorOf(refs, ident.KeyOfString(s)).Key == want {
			return s
		}
	}
}

// Gray runs the gray-failure scenario: a simulated CATS cluster serving
// quorum traffic while the emulator injects straggler pulses (slow, never
// dead, nodes) at a replica group held one ack short of quorum, and a
// synchronized op burst from one coordinator. It gates the same invariants
// as the chaos scenario — linearizable history, zero lost acked writes —
// plus evidence the resilience layer actually engaged: hedges fired.
func Gray(seed int64, simOpts ...simulation.SimOption) GrayResult {
	ring, restore := traceEveryOp(1 << 16)
	defer restore()

	nodeCfg := simTimings
	// A 2ms deadline floor keeps adaptive budgets meaningful at the
	// emulator's sub-millisecond latencies (the default floor, OpTimeout/20
	// = 100ms, would swamp them).
	nodeCfg.DeadlineFloor = 2 * time.Millisecond

	resBefore := abd.GlobalResilienceMetrics()

	nodeKeys := spreadKeys(grayNodes)
	c := cats.NewSimCluster(seed, nodeCfg, "", simLAN(), simOpts...)
	c.Host.RecordOps = true
	c.Join(nodeKeys)
	rng := rand.New(rand.NewSource(seed ^ 0x67726179)) // "gray"

	// Geometry: the hedge group is the replica group of a key owned by
	// node hIdx — members {hIdx, hIdx+1, hIdx+2}. The coordinator is hIdx
	// itself (its self-phase acks instantly), and the pulses slow the other
	// two members, stalling every phase at quorum-minus-one.
	n := grayNodes
	hIdx := rng.Intn(n)
	hedgeKey := keyOwnedBy(nodeKeys, hIdx, "gray-hedge")
	hCoord := nodeKeys[hIdx]
	slowA := ident.NodeRef{Key: nodeKeys[(hIdx+1)%n]}
	slowB := ident.NodeRef{Key: nodeKeys[(hIdx+2)%n]}
	var slowAddrA, slowAddrB = refAddr(c.Host, slowA.Key), refAddr(c.Host, slowB.Key)

	// Phase 1 — warm-up: paced ops on the hedge key from the hedge
	// coordinator, so its estimators for the group members converge well
	// below OpTimeout before the first pulse.
	warmSpacing := 150 * time.Millisecond
	for i := 0; i < grayWarmOps; i++ {
		at := time.Duration(i) * warmSpacing
		if i == 0 || i%4 == 0 {
			val := []byte("warm-" + strconv.Itoa(i))
			c.Schedule(at, "gray:op", cats.OpPut{NodeKey: hCoord, Key: hedgeKey, Value: val})
		} else {
			c.Schedule(at, "gray:op", cats.OpGet{NodeKey: hCoord, Key: hedgeKey})
		}
	}
	warmEnd := time.Duration(grayWarmOps) * warmSpacing

	// Phase 2 — straggler pulses: both non-coordinator group members turn
	// slow for stragglerPulse, and a get is issued at the pulse instant. Its
	// phase messages to them are delayed by stragglerExtra; the self ack holds
	// the phase at quorum-minus-one; the adaptive hedge checkpoint lands
	// after the pulse expired, so the hedged duplicate travels fast and
	// wins the race while the originals are still in flight.
	pulseSpacing := 500 * time.Millisecond
	for i := 0; i < grayPulses; i++ {
		at := warmEnd + time.Second + time.Duration(i)*pulseSpacing
		c.Sim.ScheduleAt(at, "gray:pulse", func() {
			c.Emu.SlowNode(slowAddrA, stragglerExtra, stragglerPulse)
			c.Emu.SlowNode(slowAddrB, stragglerExtra, stragglerPulse)
		})
		c.Schedule(at, "gray:op", cats.OpGet{NodeKey: hCoord, Key: hedgeKey})
	}
	pulseEnd := warmEnd + time.Second + time.Duration(grayPulses)*pulseSpacing

	// Phase 3 — synchronized burst: grayBurstOps ops issued at one virtual
	// instant from one coordinator, several of them racing on each key.
	// Every replica covering the burst keys serves them all in one go, and
	// the history must still come out linearizable with no acked write
	// lost.
	burstAt := pulseEnd + time.Second
	bCoord := nodeKeys[(hIdx+3)%n]
	burstKeys := make([]string, grayBurstKeys)
	for k := range burstKeys {
		burstKeys[k] = "gray-burst-" + strconv.Itoa(k)
	}
	for i := 0; i < grayBurstOps; i++ {
		key := burstKeys[i%len(burstKeys)]
		if i < len(burstKeys) || rng.Float64() < 0.5 {
			val := []byte("burst-" + strconv.Itoa(i))
			c.Schedule(burstAt, "gray:op", cats.OpPut{NodeKey: bCoord, Key: key, Value: val})
		} else {
			c.Schedule(burstAt, "gray:op", cats.OpGet{NodeKey: bCoord, Key: key})
		}
	}

	mainStats := c.Sim.Run(burstAt + grayTail)

	// Audit: one read per key must observe an acknowledged value.
	preAudit := len(c.Host.OpHistory())
	auditKeys := append([]string{hedgeKey}, burstKeys...)
	for i, key := range auditKeys {
		c.Schedule(0, "gray:audit", cats.OpGet{NodeKey: nodeKeys[i%n], Key: key})
	}
	auditStats := c.Sim.Run(nodeCfg.OpTimeout * 4)

	res := GrayResult{
		Nodes:             grayNodes,
		HistoryAudit:      auditHistory(c.Host, preAudit, auditKeys),
		SimulatedDuration: mainStats.SimulatedDuration + auditStats.SimulatedDuration,
		DiscreteEvents:    mainStats.DiscreteEvents + auditStats.DiscreteEvents,
		HandlerExecutions: mainStats.HandlerExecutions + auditStats.HandlerExecutions,
	}
	resAfter := abd.GlobalResilienceMetrics()
	res.Retries = resAfter.Retries - resBefore.Retries
	res.Hedges = resAfter.Hedges - resBefore.Hedges
	res.HedgeWins = resAfter.HedgeWins - resBefore.HedgeWins
	res.SlowWindows, res.SlowDelayed = c.Emu.GrayStats()
	for _, ref := range c.Host.AliveNodes() {
		if p, ok := c.Host.Peer(ref.Key); ok && p.Node != nil {
			res.SlowHints += p.Node.FD.SlowHints()
		}
	}

	res.Timelines = tracing.Assemble(ring.Snapshot())
	res.TraceTimelines = len(res.Timelines)
	for _, tl := range res.Timelines {
		res.TraceSpans += len(tl.Spans)
	}
	res.TraceDigest = TimelineDigest(res.Timelines)
	return res
}

// refAddr resolves a node key to its emulated transport address.
func refAddr(host *cats.Simulator, key ident.Key) (addr network.Address) {
	for _, ref := range host.AliveNodes() {
		if ref.Key == key {
			return ref.Addr
		}
	}
	return
}

// --- hedge A/B benchmark ---------------------------------------------------------

// HedgeBench's shape: estimator warm-up ops, then pulsed ops measured per
// arm.
const (
	hedgeWarmOps = 16
	hedgeOps     = 40
)

// HedgeArm is one arm's latency profile over the pulsed ops, in virtual
// time (deterministic per seed, machine-independent).
type HedgeArm struct {
	Ops    int
	Failed int
	P50    time.Duration
	P99    time.Duration
	Max    time.Duration
}

// HedgeBenchResult is the A/B comparison plus the hedge activity observed
// in the hedging-on arm.
type HedgeBenchResult struct {
	Off HedgeArm // fixed-deadline coordinator: never hedges
	On  HedgeArm // adaptive deadlines: hedges
	// Hedges/HedgeWins fired during the On arm (process-wide deltas).
	Hedges    uint64
	HedgeWins uint64
	// P99Improvement is Off.P99 / On.P99 (higher is better; > 1 means
	// hedging shortened the tail).
	P99Improvement float64
}

// HedgeBench measures tail latency under a gray-failing replica with a
// fixed-deadline coordinator (every peer deadline pinned to OpTimeout, so
// the hedge checkpoint is never past one: hedging off) vs the adaptive one
// (hedging on). A two-node cluster makes every replica group both
// nodes (quorum two): pulsing the non-coordinator slow holds every phase
// at quorum-minus-one, which is precisely the hedge trigger. With hedging
// off the op must ride out the delayed original (or an attempt timeout +
// backoff); with hedging on the checkpoint fires after the pulse expired
// and the fast duplicate completes the quorum.
func HedgeBench(seed int64) HedgeBenchResult {
	var res HedgeBenchResult
	res.Off = hedgeArm(seed, simTimings.OpTimeout)
	mid := abd.GlobalResilienceMetrics()
	res.On = hedgeArm(seed, 2*time.Millisecond)
	resAfter := abd.GlobalResilienceMetrics()
	res.Hedges = resAfter.Hedges - mid.Hedges
	res.HedgeWins = resAfter.HedgeWins - mid.HedgeWins
	if res.On.P99 > 0 {
		res.P99Improvement = float64(res.Off.P99) / float64(res.On.P99)
	}
	return res
}

// hedgeArm runs one arm of the A/B: same seed, same pulse schedule, only
// the adaptive-deadline floor differs.
func hedgeArm(seed int64, deadlineFloor time.Duration) HedgeArm {
	nodeCfg := simTimings
	nodeCfg.DeadlineFloor = deadlineFloor

	nodeKeys := spreadKeys(2)
	c := cats.NewSimCluster(seed, nodeCfg, "", simLAN())
	c.Host.RecordOps = true
	c.Join(nodeKeys)
	// Coordinator: node 0. Straggler: node 1. Every key's replica group is
	// both nodes, so any key works; the coordinator's self-phase acks
	// instantly and the remote is the lone straggler.
	coord := nodeKeys[0]
	slowAddr := refAddr(c.Host, nodeKeys[1])
	key := "hedge-bench"

	warmSpacing := 150 * time.Millisecond
	c.Schedule(0, "hedge:op", cats.OpPut{NodeKey: coord, Key: key, Value: []byte("seed")})
	for i := 1; i < hedgeWarmOps; i++ {
		c.Schedule(time.Duration(i)*warmSpacing, "hedge:op", cats.OpGet{NodeKey: coord, Key: key})
	}
	warmEnd := time.Duration(hedgeWarmOps) * warmSpacing

	pulseSpacing := 500 * time.Millisecond
	for i := 0; i < hedgeOps; i++ {
		at := warmEnd + time.Second + time.Duration(i)*pulseSpacing
		c.Sim.ScheduleAt(at, "hedge:pulse", func() { c.Emu.SlowNode(slowAddr, stragglerExtra, stragglerPulse) })
		c.Schedule(at, "hedge:op", cats.OpGet{NodeKey: coord, Key: key})
	}

	preMeasure := hedgeWarmOps // history index where the pulsed ops start
	c.Sim.Run(warmEnd + time.Second + time.Duration(hedgeOps)*pulseSpacing + nodeCfg.OpTimeout*4)

	history := c.Host.OpHistory()
	var lat []time.Duration
	arm := HedgeArm{}
	for _, r := range history {
		if r.Kind != "get" {
			continue
		}
		if !r.OK {
			arm.Failed++
			continue
		}
		lat = append(lat, r.End.Sub(r.Start))
	}
	// Drop the warm-up gets (completion order tracks issue order here: the
	// workload is strictly sequential in virtual time).
	if len(lat) > preMeasure-1 {
		lat = lat[preMeasure-1:]
	}
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	arm.Ops = len(lat)
	if len(lat) == 0 {
		return arm
	}
	arm.P50 = lat[len(lat)/2]
	arm.P99 = lat[len(lat)*99/100]
	arm.Max = lat[len(lat)-1]
	return arm
}
