package experiments

import (
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"time"

	"repro/internal/abd"
	"repro/internal/cats"
	"repro/internal/core"
	"repro/internal/handoff"
	"repro/internal/kvstore"
	"repro/internal/network"
	"repro/internal/tracing"
)

// kvClusterConfig returns relaxed node timings for the real-time KV
// benchmarks: background protocol periods are slow so the measurement
// reflects the operation path.
func kvClusterConfig() cats.NodeConfig {
	return cats.NodeConfig{
		ReplicationDegree: 3,
		// The benchmark clusters are faultless, so the failure detector only
		// adds noise: on a small machine a CPU-heavy phase (e.g. preloading a
		// million registers) can delay ping handlers past the suspicion
		// threshold, and one false eviction cascades into reconfiguration +
		// full-store handoff that poisons the measurement. Make suspicion
		// need ~30s of silence.
		FDInterval:           5 * time.Second,
		FDSuspectAfterMisses: 6,
		StabilizePeriod:      time.Second,
		CyclonPeriod:         2 * time.Second,
		// Short per-attempt timeout: an op that catches a replica mid-epoch-
		// sync (Busy nack) only retries on timeout, and a multi-second
		// straggler would dominate the round's wall-clock.
		OpTimeout: 500 * time.Millisecond,
	}
}

// buildKVCluster boots a real-time loopback cluster of n nodes with full
// per-message marshalling (the realistic framed-transport cost) and waits
// for ring convergence. The caller must Shutdown the returned runtime.
func buildKVCluster(n int) (*core.Runtime, *cats.Simulator, *core.Port) {
	registry := network.NewLoopbackRegistry(network.WithCodec(network.Codec{}))
	host := cats.NewSimulator(cats.LoopbackEnv{Registry: registry}, kvClusterConfig())
	rt := core.New(core.WithFaultPolicy(core.LogAndContinue))
	var exp *core.Port
	rt.MustBootstrap("Main", core.SetupFunc(func(ctx *core.Ctx) {
		c := ctx.Create("simulator", host)
		exp = c.Provided(cats.ExperimentPortType)
	}))
	rt.WaitQuiescence(5 * time.Second)
	for _, k := range spreadKeys(n) {
		_ = core.TriggerOn(exp, cats.JoinNode{Key: k})
		time.Sleep(10 * time.Millisecond)
	}
	waitForRing(rt, host, n, 30*time.Second)
	time.Sleep(500 * time.Millisecond) // membership tables settle
	return rt, host, exp
}

// percentiles returns p50 and p99 of the (unsorted) latency samples.
func percentiles(lat []time.Duration) (p50, p99 time.Duration) {
	if len(lat) == 0 {
		return 0, 0
	}
	s := append([]time.Duration(nil), lat...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s[len(s)/2], s[len(s)*99/100]
}

// quorumRound runs one closed-loop round on a fresh cluster and returns
// completed ops, elapsed load time and latencies.
func quorumRound(nodes, clients, ops int) (done uint64, elapsed time.Duration, lat []time.Duration) {
	rt, host, exp := buildKVCluster(nodes)
	defer rt.Shutdown()

	_ = core.TriggerOn(exp, cats.StartLoad{
		Clients:      clients,
		TotalOps:     ops,
		ValueSize:    256,
		ReadFraction: 0.5,
		Keys:         64,
	})
	deadline := time.Now().Add(2 * time.Minute)
	for time.Now().Before(deadline) {
		if m := host.Metrics(); int(m.LoadDone) >= ops {
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	rt.WaitQuiescence(5 * time.Second)

	m := host.Metrics()
	return m.LoadDone, m.LoadEnd.Sub(m.LoadStart), m.OpLatencies
}

// QuorumTraceArm is one sampling configuration in the tracing-overhead
// comparison.
type QuorumTraceArm struct {
	SampleEvery int // 0 = tracing off, 64 = default sampling, 1 = every op
	OpsPS       float64
	P50, P99    time.Duration
	Spans       uint64    // spans recorded during this arm's rounds
	RoundPS     []float64 // per-round ops/s, in round order (noise diagnostic)
}

// QuorumTraceABResult summarizes the tracing-overhead A/B/C comparison on
// the coalesced quorum workload.
type QuorumTraceABResult struct {
	Nodes    int
	Clients  int
	OpsRound int
	Rounds   int

	Off     QuorumTraceArm // tracing disabled
	Sampled QuorumTraceArm // default 1-in-64 sampling
	Always  QuorumTraceArm // every op traced

	// Overheads are 1 - median over rounds of (arm ops/s ÷ same-round off
	// ops/s): positive means the arm is slower than tracing-off. Pairing
	// within a round compares runs seconds apart, so slow machine drift
	// across a multi-minute run cancels instead of polluting the estimate;
	// the median discards rounds a noise spike ruined. Gate: Sampled <= 3%.
	SampledOverhead float64
	AlwaysOverhead  float64
}

// QuorumTraceAB measures the cost of the span layer on the coalesced
// quorum workload at three sampling rates — off, the default 1 in 64, and
// every op — with rounds interleaved in rotating order so machine drift
// cancels instead of biasing one arm. Each arm runs against a fresh
// private span ring; the process sampling rate and ring are restored on
// return.
func QuorumTraceAB(nodes, clients, opsPerRound, rounds int) QuorumTraceABResult {
	if nodes <= 0 {
		nodes = 3
	}
	if clients <= 0 {
		clients = 48
	}
	if opsPerRound <= 0 {
		opsPerRound = 4000
	}
	if rounds <= 0 {
		rounds = 3
	}
	res := QuorumTraceABResult{Nodes: nodes, Clients: clients, OpsRound: opsPerRound, Rounds: rounds}
	res.Off.SampleEvery, res.Sampled.SampleEvery, res.Always.SampleEvery = 0, 64, 1

	type acc struct {
		done    uint64
		time    time.Duration
		lat     []time.Duration
		spans   uint64
		roundPS []float64 // per-round ops/s, indexed by round
	}
	accs := map[int]*acc{0: {}, 64: {}, 1: {}}
	runOne := func(every int) {
		a := accs[every]
		ring := tracing.NewRing(1 << 15)
		prevRing := tracing.SwapDefault(ring)
		prevSample := tracing.SetSampleEvery(every)
		done, elapsed, lat := quorumRound(nodes, clients, opsPerRound)
		tracing.SetSampleEvery(prevSample)
		tracing.SwapDefault(prevRing)
		a.done += done
		a.time += elapsed
		a.lat = append(a.lat, lat...)
		a.spans += ring.Recorded()
		ps := 0.0
		if elapsed > 0 {
			ps = float64(done) / elapsed.Seconds()
		}
		a.roundPS = append(a.roundPS, ps)
	}
	// One discarded warm-up round: the first round of a process run absorbs
	// cold caches and any initial CPU-quota burst, which would otherwise be
	// credited entirely to whichever arm runs first.
	warm, _, _ := quorumRound(nodes, clients, opsPerRound)
	_ = warm

	order := []int{0, 64, 1}
	for r := 0; r < rounds; r++ {
		for i := range order {
			runOne(order[(r+i)%len(order)])
		}
	}

	fill := func(arm *QuorumTraceArm) {
		a := accs[arm.SampleEvery]
		if a.time > 0 {
			arm.OpsPS = float64(a.done) / a.time.Seconds()
		}
		arm.P50, arm.P99 = percentiles(a.lat)
		arm.Spans = a.spans
		arm.RoundPS = a.roundPS
	}
	fill(&res.Off)
	fill(&res.Sampled)
	fill(&res.Always)
	overhead := func(every int) float64 {
		off := accs[0].roundPS
		arm := accs[every].roundPS
		ratios := make([]float64, 0, len(arm))
		for r := range arm {
			if r < len(off) && off[r] > 0 {
				ratios = append(ratios, arm[r]/off[r])
			}
		}
		if len(ratios) == 0 {
			return 0
		}
		sort.Float64s(ratios)
		return 1 - ratios[len(ratios)/2]
	}
	res.SampledOverhead = overhead(64)
	res.AlwaysOverhead = overhead(1)
	return res
}

// MillionKVResult summarizes the large-store open-loop profile.
type MillionKVResult struct {
	Nodes       int
	Keys        int // distinct keys preloaded per replica
	Ops         int // operations issued open-loop
	RatePS      int // issue rate
	Done        uint64
	Failed      uint64
	OpsPS       float64
	P50         time.Duration
	P99         time.Duration
	AllocsPerOp float64
	// Heap occupancy around the load phase (preloaded store resident in
	// both), to show the sharded store serves traffic with stable memory.
	HeapBeforeMB float64
	HeapAfterMB  float64
	// Per-shard occupancy of one replica's store after the run.
	ShardKeys      int
	NonEmptyShards int
	MinShardKeys   int
	MaxShardKeys   int
}

// MillionKV preloads every replica's sharded store with `keys` distinct
// registers (directly through the store — populating through quorum writes
// would measure the protocol, not the store) and then drives an open-loop
// read-heavy workload at ratePS operations per second against the full
// keyspace, reporting completed throughput, p50/p99, allocation rate, and
// per-shard occupancy. Open-loop means the issue rate does not adapt to
// completions: latencies include any queueing the store layer causes.
func MillionKV(keys, ops, ratePS int) MillionKVResult {
	if keys <= 0 {
		keys = 1_000_000
	}
	if ops <= 0 {
		ops = 30_000
	}
	if ratePS <= 0 {
		ratePS = 1_500
	}
	const nodes = 3 // degree 3: every replica covers the whole keyspace
	res := MillionKVResult{Nodes: nodes, Keys: keys, Ops: ops, RatePS: ratePS}

	rt, host, exp := buildKVCluster(nodes)
	defer rt.Shutdown()

	// Preload each replica's store directly, identically (version-gated
	// Apply makes the stores canonical).
	val := make([]byte, 64)
	for _, ref := range host.AliveNodes() {
		p, ok := host.Peer(ref.Key)
		if !ok || p.Node == nil {
			continue
		}
		st := p.Node.ABD.Store()
		for i := 0; i < keys; i++ {
			st.Apply(millionKey(i), kvstore.Version{Seq: 1, Writer: 1}, val)
		}
	}

	// Wait out any reconfiguration the preload provoked: if an epoch bump
	// slipped in, replicas may be mid-handoff (Busy-nacking every op) for
	// as long as the sync round over the big store takes. Measure only
	// once epochs and handoff volume have been still for a few seconds.
	waitForEpochQuiescence(host, 3*time.Second, 2*time.Minute)

	// Double GC: pooled buffers (codec scratch from any handoff round the
	// preload provoked) survive one collection and would inflate the
	// before-measurement.
	var msBefore, msAfter runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&msBefore)
	res.HeapBeforeMB = float64(msBefore.HeapAlloc) / (1 << 20)

	// Open-loop issue at a fixed rate across the whole keyspace.
	rng := rand.New(rand.NewSource(1))
	interval := time.Second / time.Duration(ratePS)
	opVal := make([]byte, 128)
	start := time.Now()
	for i := 0; i < ops; i++ {
		if d := time.Until(start.Add(time.Duration(i) * interval)); d > 0 {
			time.Sleep(d)
		}
		key := millionKey(rng.Intn(keys))
		node := spreadKeys(nodes)[rng.Intn(nodes)]
		if rng.Float64() < 0.9 {
			_ = core.TriggerOn(exp, cats.OpGet{NodeKey: node, Key: key})
		} else {
			_ = core.TriggerOn(exp, cats.OpPut{NodeKey: node, Key: key, Value: opVal})
		}
	}
	deadline := time.Now().Add(2 * time.Minute)
	var m cats.Metrics
	for time.Now().Before(deadline) {
		m = host.Metrics()
		if m.GetsOK+m.GetsFailed+m.PutsOK+m.PutsFailed >= uint64(ops) {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	elapsed := time.Since(start)

	// GC before the after-measurement so HeapAfterMB is live occupancy
	// (the preloaded store plus whatever the load retained), not transient
	// message garbage. Mallocs is cumulative and unaffected.
	runtime.GC()
	runtime.ReadMemStats(&msAfter)
	res.HeapAfterMB = float64(msAfter.HeapAlloc) / (1 << 20)
	res.Done = m.GetsOK + m.PutsOK
	res.Failed = m.GetsFailed + m.PutsFailed
	if elapsed > 0 {
		res.OpsPS = float64(res.Done) / elapsed.Seconds()
	}
	res.P50, res.P99 = percentiles(m.OpLatencies)
	if res.Done > 0 {
		res.AllocsPerOp = float64(msAfter.Mallocs-msBefore.Mallocs) / float64(res.Done)
	}

	if refs := host.AliveNodes(); len(refs) > 0 {
		if p, ok := host.Peer(refs[0].Key); ok && p.Node != nil {
			st := p.Node.ABD.Store().Stats()
			res.ShardKeys = st.Keys
			res.NonEmptyShards = st.NonEmptyShards
			res.MinShardKeys, res.MaxShardKeys = st.PerShard[0], st.PerShard[0]
			for _, n := range st.PerShard[1:] {
				if n < res.MinShardKeys {
					res.MinShardKeys = n
				}
				if n > res.MaxShardKeys {
					res.MaxShardKeys = n
				}
			}
		}
	}
	return res
}

// waitForEpochQuiescence blocks until no node's replica-group epoch and no
// process-wide handoff counter has changed for `still`, or until `max`
// elapses. Quiesced epochs mean no replica is inside a sync window.
func waitForEpochQuiescence(host *cats.Simulator, still, max time.Duration) {
	type snap struct {
		epochs  []uint64
		keys    uint64
		syncing bool
	}
	take := func() snap {
		s := snap{keys: handoff.GlobalMetrics().Keys}
		for _, ref := range host.AliveNodes() {
			if p, ok := host.Peer(ref.Key); ok && p.Node != nil {
				s.epochs = append(s.epochs, p.Node.ABD.Epoch())
				s.syncing = s.syncing || p.Node.ABD.Syncing()
			}
		}
		return s
	}
	eq := func(a, b snap) bool {
		// A replica inside a sync window is never quiet: the handoff keys
		// counter only moves when the round completes, so an in-flight
		// round would otherwise look still.
		if a.syncing || b.syncing {
			return false
		}
		if a.keys != b.keys || len(a.epochs) != len(b.epochs) {
			return false
		}
		for i := range a.epochs {
			if a.epochs[i] != b.epochs[i] {
				return false
			}
		}
		return true
	}
	deadline := time.Now().Add(max)
	last, lastChange := take(), time.Now()
	for time.Now().Before(deadline) {
		time.Sleep(200 * time.Millisecond)
		cur := take()
		if !eq(cur, last) {
			last, lastChange = cur, time.Now()
			continue
		}
		if time.Since(lastChange) >= still {
			return
		}
	}
}

// millionKey names the i-th preloaded register.
func millionKey(i int) string { return fmt.Sprintf("m-%d", i) }

// Ensure the abd metrics sources are linked into benchmark binaries even
// when only this file's experiments are used.
var _ = abd.GlobalBatchMetrics
