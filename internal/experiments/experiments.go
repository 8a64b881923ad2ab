// Package experiments implements the paper's evaluation artifacts and the
// repo's fault-injection scenarios as reusable functions. The catssim
// scenario registry runs them (its paper entries print paper-style tables,
// its gate entries print reports it checks invariants over), and the root
// bench_test.go benchmarks reuse the paper experiments. The paper rows of
// DESIGN.md §3:
//
//   - Table1: simulated-time compression vs. number of peers.
//   - C1: end-to-end operation latency on an in-process cluster.
//   - C2: aggregate read throughput vs. cluster size.
//   - C3: work-stealing batch-size ablation.
//
// The scenarios: Churn (crash-restart churn, link flaps, partitions),
// Gray (straggler pulses and an overload burst), HedgeBench (the hedging
// A/B under a gray replica), CodecSwap (live wire-codec swaps), and the
// two-process crash-restart Recovery pair.
package experiments

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cats"
	"repro/internal/core"
	"repro/internal/ident"
	"repro/internal/network"
	"repro/internal/scenario"
	"repro/internal/simulation"
)

// simTimings are the node timings every simulated experiment changes
// from the shipped NodeConfig: protocol traffic realistic but cheap.
var simTimings = cats.NodeConfig{
	FDInterval:        time.Second,
	StabilizePeriod:   time.Second,
	CyclonPeriod:      2 * time.Second,
	OpTimeout:         2 * time.Second,
	RouterSweepPeriod: 10 * time.Second,
}

// simLAN is the emulated network of every simulated experiment, uniform
// 0.5–2ms one-way latency, followed by opts.
func simLAN(opts ...simulation.EmulatorOption) []simulation.EmulatorOption {
	return append([]simulation.EmulatorOption{
		simulation.WithLatency(simulation.UniformLatency(500*time.Microsecond, 2*time.Millisecond)),
	}, opts...)
}

// spreadKeys returns n node keys spread evenly around the 2^64 ring.
func spreadKeys(n int) []ident.Key {
	keys := make([]ident.Key, n)
	step := ^uint64(0)/uint64(n) + 1
	for i := range keys {
		keys[i] = ident.Key(uint64(i)*step + 12345)
	}
	return keys
}

// Table1Result is one row of the paper's Table 1 reproduction.
type Table1Result struct {
	Peers             int
	SimulatedDuration time.Duration
	WallDuration      time.Duration
	Compression       float64
	DiscreteEvents    uint64
	HandlerExecutions uint64
}

// Table1 measures the time-compression ratio of simulating a system of
// `peers` nodes for simTime of virtual time under a lookup workload (one
// lookup per node per second on average), mirroring the paper's Table 1.
// The setup phase (boot + convergence) is excluded from the measurement,
// as the paper reports steady-state simulation.
func Table1(seed int64, peers int, simTime time.Duration) Table1Result {
	c := cats.NewSimCluster(seed, simTimings, "", simLAN())
	c.Join(spreadKeys(peers))

	// Lookup workload: `peers` lookups per simulated second in aggregate.
	lookups := scenario.NewProcess("lookups").
		EventInterArrivalTime(scenario.ExponentialDuration(time.Second / time.Duration(peers)))
	total := int(simTime/time.Second) * peers
	scenario.Raise2(lookups, total,
		func(node, key uint64) core.Event {
			return cats.OpLookup{NodeKey: ident.Key(node), Target: ident.Key(key)}
		},
		func(rng *rand.Rand) uint64 { return rng.Uint64() },
		func(rng *rand.Rand) uint64 { return rng.Uint64() },
	)
	sc := scenario.New().Start(lookups)
	sched, err := sc.Generate(seed)
	if err != nil {
		panic(err)
	}
	scenario.ExecuteSimulated(c.Sim, sched, c.Exp)

	stats := c.Sim.Run(simTime)
	return Table1Result{
		Peers:             peers,
		SimulatedDuration: stats.SimulatedDuration,
		WallDuration:      stats.WallDuration,
		Compression:       stats.Compression(),
		DiscreteEvents:    stats.DiscreteEvents,
		HandlerExecutions: stats.HandlerExecutions,
	}
}

// LatencyResult summarizes experiment C1.
type LatencyResult struct {
	Nodes       int
	Replication int
	ValueSize   int
	Ops         int
	Codec       string // registered wire-codec name
	Mean        time.Duration
	P50         time.Duration
	P99         time.Duration
	Max         time.Duration
	SubMilli    float64 // fraction of ops under 1ms
}

// Latency measures end-to-end put/get latency on a real-time in-process
// cluster over the loopback transport, every message encoded and decoded
// by the registered wire codec named codec — the paper's §4.1
// sub-millisecond LAN claim (4 one-way latencies, 4× serialization, 4×
// deserialization, plus runtime dispatching, per operation). Background
// protocol periods are relaxed so the measurement reflects the operation
// path, as on the paper's idle LAN cluster.
func Latency(nodes, replication, valueSize, ops int, codec string) LatencyResult {
	wc, ok := network.CodecByName(codec)
	if !ok {
		panic(fmt.Sprintf("experiments: unknown wire codec %q (registered: %v)", codec, network.CodecNames()))
	}
	registry := network.NewLoopbackRegistry(network.WithWireCodec(wc))
	cfg := cats.NodeConfig{
		ReplicationDegree: replication,
		FDInterval:        2 * time.Second,
		StabilizePeriod:   time.Second,
		CyclonPeriod:      2 * time.Second,
		OpTimeout:         5 * time.Second,
	}
	host := cats.NewSimulator(cats.LoopbackEnv{Registry: registry}, cfg)
	rt := core.New(core.WithFaultPolicy(core.LogAndContinue))
	defer rt.Shutdown()
	var exp *core.Port
	rt.MustBootstrap("Main", core.SetupFunc(func(ctx *core.Ctx) {
		c := ctx.Create("simulator", host)
		exp = c.Provided(cats.ExperimentPortType)
	}))
	rt.WaitQuiescence(5 * time.Second)

	for _, k := range spreadKeys(nodes) {
		_ = core.TriggerOn(exp, cats.JoinNode{Key: k})
		time.Sleep(10 * time.Millisecond)
	}
	waitForRing(rt, host, nodes, 30*time.Second)
	time.Sleep(2 * time.Second) // let membership tables converge

	// Closed-loop single client: each op's latency is a clean end-to-end
	// round trip with no queueing from concurrent ops.
	_ = core.TriggerOn(exp, cats.StartLoad{
		Clients:      1,
		TotalOps:     ops,
		ValueSize:    valueSize,
		ReadFraction: 0.5,
		Keys:         64,
	})
	deadline := time.Now().Add(5 * time.Minute)
	for time.Now().Before(deadline) {
		if m := host.Metrics(); int(m.LoadDone) >= ops {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	rt.WaitQuiescence(10 * time.Second)

	m := host.Metrics()
	lat := append([]time.Duration(nil), m.OpLatencies...)
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	res := LatencyResult{Nodes: nodes, Replication: replication, ValueSize: valueSize, Ops: len(lat), Codec: codec}
	if len(lat) == 0 {
		return res
	}
	var sum time.Duration
	sub := 0
	for _, d := range lat {
		sum += d
		if d < time.Millisecond {
			sub++
		}
	}
	res.Mean = sum / time.Duration(len(lat))
	res.P50 = lat[len(lat)/2]
	res.P99 = lat[len(lat)*99/100]
	res.Max = lat[len(lat)-1]
	res.SubMilli = float64(sub) / float64(len(lat))
	return res
}

// waitForRing polls until every deployed node reports a joined ring.
func waitForRing(rt *core.Runtime, host *cats.Simulator, nodes int, timeout time.Duration) {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		rt.WaitQuiescence(100 * time.Millisecond)
		joined := 0
		for _, ref := range host.AliveNodes() {
			if p, ok := host.Peer(ref.Key); ok && p.Node != nil && p.Node.Ring.Joined() {
				joined++
			}
		}
		if joined >= nodes {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// ScalingResult summarizes one row of experiment C2.
type ScalingResult struct {
	Nodes        int
	Ops          uint64
	Failed       uint64
	ThroughputPS float64 // completed reads per simulated second
	PerNodePS    float64
	MeanLatency  time.Duration
}

// Scaling measures aggregate read throughput of a simulated cluster of n
// nodes under a closed-loop read-intensive workload (95% reads of 1 KiB
// values, clientsPerNode concurrent clients per node), in virtual time —
// the paper's §4.1 claim that CATS scales near-linearly to 96 machines.
// Each node contributes independent capacity in the emulated network, so
// the measured shape isolates the protocol stack's scalability.
func Scaling(seed int64, n, clientsPerNode, opsPerNode int) ScalingResult {
	c := cats.NewSimCluster(seed, simTimings, "", simLAN())
	c.Join(spreadKeys(n))
	target := uint64(opsPerNode * n)
	_ = core.TriggerOn(c.Exp, cats.StartLoad{
		Clients:      clientsPerNode * n,
		TotalOps:     int(target),
		ValueSize:    1024,
		ReadFraction: 0.95,
		Keys:         1024,
	})
	// Run in bounded virtual-time slices until the load drains (the
	// cluster's periodic protocol timers re-arm forever, so an unbounded
	// run would never return).
	for i := 0; i < 10_000 && c.Host.Metrics().LoadDone < target; i++ {
		c.Sim.Run(time.Second)
	}
	m := c.Host.Metrics()
	var mean time.Duration
	if m.LoadDone > 0 {
		mean = m.LoadLatencySum / time.Duration(m.LoadDone)
	}
	return ScalingResult{
		Nodes:        n,
		Ops:          m.LoadDone,
		Failed:       m.GetsFailed + m.PutsFailed,
		ThroughputPS: m.LoadThroughput(),
		PerNodePS:    m.LoadThroughput() / float64(n),
		MeanLatency:  mean,
	}
}

// StealingResult summarizes one row of experiment C3.
type StealingResult struct {
	Workers     int
	Batch       string
	Events      int
	Wall        time.Duration
	EventsPerMS float64
	Steals      uint64
	Stolen      uint64
}

// Stealing measures scheduler throughput under maximal placement imbalance
// (every externally scheduled component lands on worker 0's deque; all other
// workers must steal) with the given steal-batch policy — the paper's §3
// claim that batching (stealing half the victim's queue) considerably
// outperforms stealing single components. With the array-based deques a
// batch steal claims the whole range in a single CAS of the victim's top
// index, so Steals counts one operation per transferred batch rather than
// per transferred component.
func Stealing(workers, components, eventsPerComponent int, batchHalf bool) StealingResult {
	batch := func(n int64) int64 { return 1 }
	label := "one"
	if batchHalf {
		batch = func(n int64) int64 { return n / 2 }
		label = "half"
	}
	sched := core.NewWorkStealingScheduler(workers,
		core.WithStealBatch(batch),
		core.WithPlacement(func(seq uint64, w int) int { return 0 }),
	)
	rt := core.New(core.WithScheduler(sched), core.WithFaultPolicy(core.LogAndContinue))
	defer rt.Shutdown()

	var done atomic.Int64
	total := components * eventsPerComponent
	var wg sync.WaitGroup
	wg.Add(1)
	ports := make([]*core.Port, components)
	rt.MustBootstrap("Main", core.SetupFunc(func(ctx *core.Ctx) {
		for i := 0; i < components; i++ {
			c := ctx.Create(fmt.Sprintf("c%d", i), core.SetupFunc(func(cx *core.Ctx) {
				p := cx.Provides(benchPort)
				core.Subscribe(cx, p, func(benchEvent) {
					spin(200)
					if done.Add(1) == int64(total) {
						wg.Done()
					}
				})
			}))
			ports[i] = c.Provided(benchPort)
		}
	}))
	rt.WaitQuiescence(5 * time.Second)

	start := time.Now()
	for e := 0; e < eventsPerComponent; e++ {
		for i := 0; i < components; i++ {
			_ = core.TriggerOn(ports[i], benchEvent{})
		}
	}
	wg.Wait()
	wall := time.Since(start)
	_, steals, stolen := sched.Stats()
	return StealingResult{
		Workers:     workers,
		Batch:       label,
		Events:      total,
		Wall:        wall,
		EventsPerMS: float64(total) / float64(wall.Milliseconds()+1),
		Steals:      steals,
		Stolen:      stolen,
	}
}

// benchEvent is the unit of scheduler work in microbenchmarks.
type benchEvent struct{}

// benchPort is the microbenchmark port type.
var benchPort = core.NewPortType("Bench",
	core.Request[benchEvent](),
)

// spin burns a few nanoseconds of CPU per event, standing in for handler
// work.
//
//go:noinline
func spin(n int) {
	acc := 0
	for i := 0; i < n; i++ {
		acc += i
	}
	_ = acc
}
