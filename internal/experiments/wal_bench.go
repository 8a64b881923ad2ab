package experiments

import (
	"os"
	"time"

	"repro/internal/cats"
	"repro/internal/core"
	"repro/internal/kvstore"
	"repro/internal/network"
)

// WALBenchArm is one durability configuration in the WAL A/B comparison.
type WALBenchArm struct {
	// Policy is "mem" (no WAL at all) or a sync policy name.
	Policy   string
	OpsPS    float64
	P50, P99 time.Duration

	// Process-wide WAL counter deltas attributed to this arm's rounds.
	WALAppends uint64
	WALBytes   uint64
	WALSyncs   uint64
	Snapshots  uint64
}

// WALBenchResult summarizes the durability A/B: the same write-heavy
// closed-loop workload run against an in-memory store and against the
// WAL under each sync policy.
type WALBenchResult struct {
	Nodes    int
	Clients  int
	OpsRound int
	Rounds   int

	// Arms in fixed order: mem, never, interval, always.
	Arms []WALBenchArm

	// DurabilityCost is 1 - (always ops/s ÷ mem ops/s): the full price of
	// fsync-per-append acks relative to no durability at all.
	DurabilityCost float64
	// IntervalCost is the same ratio for group-commit sync.
	IntervalCost float64
}

// walBenchConfig is the node template for one durability arm. An empty
// policy string means memory-only (no DataDir, the pre-WAL behaviour).
func walBenchConfig(sync kvstore.SyncPolicy, durable bool) cats.NodeConfig {
	cfg := kvClusterConfig()
	if durable {
		cfg.WALSync = sync
		cfg.WALSyncEvery = 2 * time.Millisecond
		cfg.WALSnapshotBytes = 8 << 20 // large: measure the log path, not snapshot churn
	}
	return cfg
}

// walRound runs one closed-loop write-heavy round on a fresh cluster.
// dataRoot == "" runs memory-only; otherwise per-node WALs live under it
// (the caller provides a fresh directory per round so no arm pays replay
// costs for a previous arm's data).
func walRound(clients, ops int, cfg cats.NodeConfig, dataRoot string) (done uint64, elapsed time.Duration, lat []time.Duration) {
	const nodes = 3
	registry := network.NewLoopbackRegistry(network.WithCodec(network.Codec{}))
	host := cats.NewSimulator(cats.LoopbackEnv{Registry: registry}, cfg)
	host.DataDirRoot = dataRoot
	rt := core.New(core.WithFaultPolicy(core.LogAndContinue))
	var exp *core.Port
	rt.MustBootstrap("Main", core.SetupFunc(func(ctx *core.Ctx) {
		c := ctx.Create("simulator", host)
		exp = c.Provided(cats.ExperimentPortType)
	}))
	defer rt.Shutdown()
	rt.WaitQuiescence(5 * time.Second)
	for _, k := range spreadKeys(nodes) {
		_ = core.TriggerOn(exp, cats.JoinNode{Key: k})
		time.Sleep(10 * time.Millisecond)
	}
	waitForRing(rt, host, nodes, 30*time.Second)
	time.Sleep(500 * time.Millisecond)

	// Write-heavy: durability sits on the put path, so reads would only
	// dilute the signal. 64 keys keep the version gate busy too.
	_ = core.TriggerOn(exp, cats.StartLoad{
		Clients:      clients,
		TotalOps:     ops,
		ValueSize:    256,
		ReadFraction: 0.25,
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

// WALBench measures the throughput cost of the durability layer: the
// same write-heavy workload against the in-memory store ("mem") and
// against the WAL under each sync policy. Rounds rotate the arm order so
// machine drift cancels instead of biasing one arm. dataRoot receives
// per-round scratch directories (cleaned up as it goes); pass "" to use
// the system temp dir.
func WALBench(clients, opsPerRound, rounds int, dataRoot string) (WALBenchResult, error) {
	if clients <= 0 {
		clients = 48
	}
	if opsPerRound <= 0 {
		opsPerRound = 4000
	}
	if rounds <= 0 {
		rounds = 3
	}
	res := WALBenchResult{Nodes: 3, Clients: clients, OpsRound: opsPerRound, Rounds: rounds}

	type arm struct {
		policy  string
		sync    kvstore.SyncPolicy
		durable bool
	}
	arms := []arm{
		{policy: "mem"},
		{policy: "never", sync: kvstore.SyncNever, durable: true},
		{policy: "interval", sync: kvstore.SyncInterval, durable: true},
		{policy: "always", sync: kvstore.SyncAlways, durable: true},
	}
	type acc struct {
		done             uint64
		time             time.Duration
		lat              []time.Duration
		appends, bytes   uint64
		syncs, snapshots uint64
	}
	accs := make(map[string]*acc, len(arms))
	for _, a := range arms {
		accs[a.policy] = &acc{}
	}

	runOne := func(a arm) error {
		root := ""
		if a.durable {
			dir, err := os.MkdirTemp(dataRoot, "walbench-"+a.policy+"-*")
			if err != nil {
				return err
			}
			defer os.RemoveAll(dir)
			root = dir
		}
		before := kvstore.GlobalMetrics()
		done, elapsed, lat := walRound(clients, opsPerRound, walBenchConfig(a.sync, a.durable), root)
		after := kvstore.GlobalMetrics()
		ac := accs[a.policy]
		ac.done += done
		ac.time += elapsed
		ac.lat = append(ac.lat, lat...)
		ac.appends += after.WALAppends - before.WALAppends
		ac.bytes += after.WALBytes - before.WALBytes
		ac.syncs += after.WALSyncs - before.WALSyncs
		ac.snapshots += after.Snapshots - before.Snapshots
		return nil
	}

	// Discarded warm-up round (cold caches, initial CPU burst).
	warmCfg := walBenchConfig(0, false)
	_, _, _ = walRound(clients, opsPerRound/2, warmCfg, "")

	for r := 0; r < rounds; r++ {
		for i := range arms {
			if err := runOne(arms[(r+i)%len(arms)]); err != nil {
				return res, err
			}
		}
	}

	opsPS := make(map[string]float64, len(arms))
	for _, a := range arms {
		ac := accs[a.policy]
		out := WALBenchArm{
			Policy:     a.policy,
			WALAppends: ac.appends,
			WALBytes:   ac.bytes,
			WALSyncs:   ac.syncs,
			Snapshots:  ac.snapshots,
		}
		if ac.time > 0 {
			out.OpsPS = float64(ac.done) / ac.time.Seconds()
		}
		out.P50, out.P99 = percentiles(ac.lat)
		opsPS[a.policy] = out.OpsPS
		res.Arms = append(res.Arms, out)
	}
	if opsPS["mem"] > 0 {
		res.DurabilityCost = 1 - opsPS["always"]/opsPS["mem"]
		res.IntervalCost = 1 - opsPS["interval"]/opsPS["mem"]
	}
	return res, nil
}
