package main

import (
	"fmt"
	"math/rand"
	"os"
	"sort"
	"time"

	"repro/internal/cats"
	"repro/internal/core"
	"repro/internal/ident"
	"repro/internal/linear"
	"repro/internal/scenario"
	"repro/internal/simulation"
)

// sim_cluster64 is the paper's second execution mode: the same CATS nodes
// under the deterministic simulation — virtual clock, single-threaded
// scheduler, emulated network — driven by the scenario DSL. Virtual time is
// cut into fixed chunks; each chunk's wall time is one timing sample, and the
// counts of the first simCountChunk chunks are the per-layer counts, so they
// repeat exactly for a seed however long the run is allowed to take.

const (
	simLookupsPerSec = 64
	simKVOpsPerSec   = 64
	// simEnvSeed seeds the simulated environment: the emulator's latency
	// draws and the protocols' own random choices. It is not the workload's
	// input. How the 64 joins interleave decides how many peers each failure
	// detector ends up watching (328 k to 380 k fd events a virtual minute
	// across seeds), so a ring booted from --seed would give every seed a
	// different background load; every seed runs on this one ring instead.
	simEnvSeed = 1
)

// simNodeConfig is the node timing the repository's simulation experiments
// use (experiments.simNodeConfig), except that router entries do not age
// out: the cluster is faultless, and with the 30 s default the routers of a
// 64-peer ring never hold the whole membership, coordinators resolve
// different replica groups for one key, and reads miss acknowledged writes.
func simNodeConfig() cats.NodeConfig {
	return cats.NodeConfig{
		ReplicationDegree: 3,
		FDInterval:        time.Second,
		StabilizePeriod:   time.Second,
		CyclonPeriod:      2 * time.Second,
		OpTimeout:         2 * time.Second,
		RouterEntryTTL:    time.Hour,
		RouterSweepPeriod: 10 * time.Second,
	}
}

type simCluster struct {
	sim  *simulation.Simulation
	emu  *simulation.NetworkEmulator
	host *cats.Simulator
	exp  *core.Port
}

// bootSim boots the peers with staggered joins and runs virtual time until
// the ring has converged: the whole of setup_s for this workload.
func bootSim(cfg config) (*simCluster, error) {
	sc := &simCluster{sim: simulation.New(simEnvSeed)}
	sc.emu = simulation.NewNetworkEmulator(sc.sim,
		simulation.WithLatency(simulation.UniformLatency(500*time.Microsecond, 2*time.Millisecond)))
	sc.host = cats.NewSimulator(cats.SimEnv{Sim: sc.sim, Emu: sc.emu}, simNodeConfig())
	sc.host.RecordOps = true
	sc.sim.Runtime().MustBootstrap("Main", core.SetupFunc(func(ctx *core.Ctx) {
		sc.exp = ctx.Create("simulator", sc.host).Provided(cats.ExperimentPortType)
	}))
	sc.sim.Settle()
	step := ^uint64(0)/uint64(cfg.simPeers) + 1
	for i := 0; i < cfg.simPeers; i++ {
		_ = core.TriggerOn(sc.exp, cats.JoinNode{Key: ident.Key(uint64(i)*step + 12345)}) // port type is fixed
		sc.sim.Run(50 * time.Millisecond)
	}
	// Ready means what it means for the KV workloads: every router knows
	// every other peer, so all coordinators resolve the same replica group.
	for virt := time.Duration(0); !sc.tablesFull(cfg.simPeers); virt += cfg.simChunk {
		if virt > 10*time.Minute {
			return nil, fmt.Errorf("router tables not full after %v of virtual time", virt)
		}
		sc.sim.Run(cfg.simChunk)
	}
	return sc, nil
}

func (sc *simCluster) tablesFull(peers int) bool {
	nodes := sc.nodes()
	for _, n := range nodes {
		if n.Router.TableSize() < peers-1 {
			return false
		}
	}
	return len(nodes) == peers
}

func (sc *simCluster) nodes() []*cats.Node {
	var out []*cats.Node
	for _, ref := range sc.host.AliveNodes() {
		if p, ok := sc.host.Peer(ref.Key); ok && p.Node != nil {
			out = append(out, p.Node)
		}
	}
	return out
}

func (sc *simCluster) counters() counters {
	delivered, _, _, _ := sc.emu.Stats()
	return takeCounters(sc.sim.Runtime(), sc.nodes(), delivered)
}

// schedule loads one chunk of the workload into the simulation's event
// queue: lookups and key-value operations as two stochastic processes of
// the scenario DSL, gets and puts randomly interleaved.
func (sc *simCluster) schedule(w workload, cfg config, data *dataset, chunk int, putSeq *uint32) error {
	secs := cfg.simChunk.Seconds()
	nKV := int(simKVOpsPerSec * secs)
	nGet := int(float64(nKV) * w.readFrac)
	anyNode := func(rng *rand.Rand) uint64 { return rng.Uint64() }
	anyKey := func(rng *rand.Rand) uint32 { return uint32(rng.Intn(len(data.keys))) }

	lookups := scenario.NewProcess("lookups").
		EventInterArrivalTime(scenario.ExponentialDuration(time.Second / simLookupsPerSec))
	scenario.Raise2(lookups, int(simLookupsPerSec*secs),
		func(node, target uint64) core.Event {
			return cats.OpLookup{NodeKey: ident.Key(node), Target: ident.Key(target)}
		}, anyNode, anyNode)
	kv := scenario.NewProcess("kv").
		EventInterArrivalTime(scenario.ExponentialDuration(time.Second / simKVOpsPerSec))
	scenario.Raise2(kv, nGet,
		func(node uint64, key uint32) core.Event {
			return cats.OpGet{NodeKey: ident.Key(node), Key: data.keys[key]}
		}, anyNode, anyKey)
	scenario.Raise2(kv, nKV-nGet,
		func(node uint64, key uint32) core.Event {
			*putSeq++
			return cats.OpPut{NodeKey: ident.Key(node), Key: data.keys[key], Value: data.value(0, key, *putSeq)}
		}, anyNode, anyKey)
	sched, err := scenario.New().Start(lookups).Start(kv).Generate(cfg.seed*1_000_003 + int64(chunk))
	if err != nil {
		return err
	}
	scenario.ExecuteSimulated(sc.sim, sched, sc.exp)
	return nil
}

// simChunkStat is one chunk's timing sample.
type simChunkStat struct {
	wall   time.Duration
	cpu    time.Duration
	ops    uint64
	events uint64
	traced bool
}

func simOps(m cats.Metrics) uint64 {
	return m.GetsOK + m.GetsFailed + m.PutsOK + m.PutsFailed + m.Lookups
}

func runSim(w workload, cfg config) (*result, error) {
	res := newResult(w, cfg)
	tmp, err := os.MkdirTemp(cfg.outDir, "kvbench-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)
	data := newDataset(cfg.seed, cfg.simKeys, w.valueSize, 0)

	var setups []float64
	var sc *simCluster
	for i := 0; i < cfg.setupRounds; i++ {
		if sc != nil {
			sc.sim.Runtime().Shutdown()
		}
		t0 := time.Now()
		if sc, err = bootSim(cfg); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}

	// Only a traced run touches the program's tracing; an untraced one
	// leaves it as shipped.
	tr := newTracer(cfg)
	defer tr.close()

	var (
		chunks             []simChunkStat
		putSeq             uint32
		countOps           uint64
		countEvents        uint64
		countExecs         uint64
		countEnd           time.Time
		before, afterCount counters
	)
	m0 := sc.host.Metrics()
	before = sc.counters()
	// Every operation of a traced chunk is sampled: 128 a virtual second.
	tr.satEvery = 1
	deadline := time.Now().Add(time.Duration(cfg.seconds * float64(time.Second)))
	for i := 0; i < cfg.simCountChunk || time.Now().Before(deadline); i++ {
		if err := sc.schedule(w, cfg, data, i, &putSeq); err != nil {
			return nil, err
		}
		// A traced run traces every other chunk, so the two kinds of chunk
		// give the tracing overhead.
		traced := cfg.trace && i%2 == 1
		tr.satWindow(i)
		opsBefore := simOps(sc.host.Metrics())
		cpu0 := cpuTime()
		st := sc.sim.Run(cfg.simChunk)
		chunks = append(chunks, simChunkStat{
			wall:   st.WallDuration,
			cpu:    cpuTime() - cpu0,
			ops:    simOps(sc.host.Metrics()) - opsBefore,
			events: st.DiscreteEvents,
			traced: traced,
		})
		if i < cfg.simCountChunk {
			countEvents += st.DiscreteEvents
			countExecs += st.HandlerExecutions
		}
		if i == cfg.simCountChunk-1 {
			afterCount = sc.counters()
			countOps = simOps(sc.host.Metrics()) - simOps(m0)
			countEnd = sc.sim.Now()
		}
	}
	tr.endSaturation()
	// Let the operations still in flight finish; nothing new is scheduled.
	sc.sim.Run(2 * simNodeConfig().OpTimeout)

	// Verification: every operation answered, every value one written for
	// its key, every key's history linearizable.
	m := sc.host.Metrics()
	res.Attempted = simOps(m) - simOps(m0) + uint64(len(sc.host.UnresolvedOps()))
	res.Failed = (m.GetsFailed - m0.GetsFailed) + (m.PutsFailed - m0.PutsFailed) +
		(m.LookupsEmpty - m0.LookupsEmpty) + (m.Skipped - m0.Skipped) + uint64(len(sc.host.UnresolvedOps()))
	if res.Failed > 0 {
		res.addError("%d failed or unanswered operations", res.Failed)
	}
	keyIndex := make(map[string]uint32, len(data.keys))
	for i, k := range data.keys {
		keyIndex[k] = uint32(i)
	}
	perKey := map[string][]linear.Op{}
	var getLat, putLat, countGetLat, countPutLat []float64
	for _, op := range sc.host.OpHistory() {
		if !op.OK {
			continue
		}
		l := linear.Op{Kind: linear.Write, Value: op.Value, Found: op.Found,
			Start: op.Start.UnixNano(), End: op.End.UnixNano()}
		us := float64(op.End.Sub(op.Start)) / 1e3
		inCount := !op.End.After(countEnd)
		if op.Kind == "get" {
			l.Kind = linear.Read
			if op.Found {
				if _, _, ok := data.check([]byte(op.Value), keyIndex[op.Key]); !ok {
					res.Failed++
					res.addError("get %s: value is not one written for this key", op.Key)
				}
			}
			getLat = append(getLat, us)
			if inCount {
				countGetLat = append(countGetLat, us)
			}
		} else {
			putLat = append(putLat, us)
			if inCount {
				countPutLat = append(countPutLat, us)
			}
		}
		perKey[op.Key] = append(perKey[op.Key], l)
	}
	checkDeadline := time.Now().Add(2 * time.Second)
	for _, k := range data.keys {
		if h := perKey[k]; len(h) > 0 && time.Now().Before(checkDeadline) && !checkRegister(h, "") {
			res.Failed++
			res.addError("key %s: history of %d operations is not linearizable", k, len(h))
		}
	}
	var speed, rate, evRate, cpuPerOp, tracedSpeed, plainSpeed []float64
	for _, c := range chunks {
		x := cfg.simChunk.Seconds() / c.wall.Seconds()
		speed = append(speed, x)
		rate = append(rate, float64(c.ops)/c.wall.Seconds())
		evRate = append(evRate, float64(c.events)/c.wall.Seconds())
		cpuPerOp = append(cpuPerOp, ratio(float64(c.cpu.Microseconds()), float64(c.ops)))
		if c.traced {
			tracedSpeed = append(tracedSpeed, x)
		} else {
			plainSpeed = append(plainSpeed, x)
		}
	}
	sort.Float64s(getLat)
	sort.Float64s(putLat)
	res.EndToEnd["setup_s"] = mean(setups)
	res.EndToEnd["ops_per_s"] = best(rate, higher)
	res.EndToEnd["cpu_us_per_op"] = best(cpuPerOp, lower)
	res.EndToEnd["get_p50_us"] = quantileSorted(getLat, 0.5)
	res.EndToEnd["put_p50_us"] = quantileSorted(putLat, 0.5)
	res.EndToEnd["peak_rss_mb"] = peakRSSMB()

	// Counts come from the first simCountChunk chunks only, so they repeat
	// exactly for a seed; per-second rates there are per virtual second.
	pl := res.PerLayer
	virt := time.Duration(cfg.simCountChunk) * cfg.simChunk
	layerMetrics(pl, before, afterCount, countOps, 0, w.valueSize, virt)
	bypassChecks(res, w)
	res.Correct = res.Failed == 0

	if cfg.trace {
		pl["simulation.speedup_x"] = best(speed, higher)
		pl["simulation.events_per_s"] = best(evRate, higher)
		pl["simulation.events_per_op"] = ratio(float64(countEvents), float64(countOps))
		pl["simulation.msgs_per_op"] = ratio(float64(afterCount.frames-before.frames), float64(countOps))
		pl["simulation.handler_execs"] = float64(countExecs)
		sort.Float64s(countGetLat)
		sort.Float64s(countPutLat)
		pl["simulation.virt_get_p50_ms"] = quantileSorted(countGetLat, 0.5) / 1e3
		pl["simulation.virt_put_p50_ms"] = quantileSorted(countPutLat, 0.5) / 1e3
		pl["loadgen.samples_get"] = float64(len(getLat))
		pl["loadgen.samples_put"] = float64(len(putLat))
		pl["loadgen.get_p99_us"] = quantileSorted(getLat, 0.99)
		pl["loadgen.put_p99_us"] = quantileSorted(putLat, 0.99)
		if len(tracedSpeed) > 0 && len(plainSpeed) > 0 {
			pl["loadgen.trace_overhead_pct"] = 100 * (1 - median(tracedSpeed)/median(plainSpeed))
		}
		spans := tr.ring.Snapshot()
		pl["loadgen.trace_spans_dropped"] = float64(spansDropped(tr.ring))
		spanMetrics(res, spans, nil, time.Time{}, true)
		if err := runProbes(tr, pl, w, cfg, data, tmp); err != nil {
			return nil, fmt.Errorf("probes: %w", err)
		}
		if err := tr.writeSpans(cfg, tmp, w.name, spans, nil); err != nil {
			return nil, err
		}
	}
	sc.sim.Runtime().Shutdown()
	return res, nil
}
