package cats

import (
	"time"

	"repro/internal/core"
	"repro/internal/ident"
	"repro/internal/simulation"
)

// SimCluster is a whole CATS deployment in one deterministic simulation:
// the Simulator host of paper §4.2 booted over an emulated network and
// virtual-time timers, running the same node code as production.
type SimCluster struct {
	Sim  *simulation.Simulation
	Emu  *simulation.NetworkEmulator
	Host *Simulator
	Exp  *core.Port // experiment port (outer)
}

// NewSimCluster builds the simulation and its network emulator, boots a
// Simulator host whose nodes take cfg (zero fields keep the NodeConfig
// defaults), and settles it. A non-empty dataDir gives every node a
// durable store under it. Set the host's RecordOps and OpSink before the
// first put or get is scheduled.
func NewSimCluster(seed int64, cfg NodeConfig, dataDir string, emuOpts []simulation.EmulatorOption, simOpts ...simulation.SimOption) *SimCluster {
	sim := simulation.New(seed, simOpts...)
	emu := simulation.NewNetworkEmulator(sim, emuOpts...)
	host := NewSimulator(SimEnv{Sim: sim, Emu: emu}, cfg)
	host.DataDirRoot = dataDir
	c := &SimCluster{Sim: sim, Emu: emu, Host: host}
	// Component RNGs are seeded from their path: the root name is part of a run's identity.
	root := "CatsSimulationMain"
	if dataDir != "" {
		root = "CatsRecoveryMain"
	}
	sim.Runtime().MustBootstrap(root, core.SetupFunc(func(ctx *core.Ctx) {
		c.Exp = ctx.Create("simulator", host).Provided(ExperimentPortType)
	}))
	sim.Settle()
	return c
}

// Join boots one node per key, 50ms of virtual time apart so join traffic
// does not stampede, then runs 60s for stabilization and gossip to
// converge.
func (c *SimCluster) Join(keys []ident.Key) {
	for _, k := range keys {
		_ = core.TriggerOn(c.Exp, JoinNode{Key: k}) // the port type is fixed
		c.Sim.Run(50 * time.Millisecond)
	}
	c.Sim.Run(60 * time.Second)
}

// Schedule triggers ev on the experiment port at virtual-time offset at.
func (c *SimCluster) Schedule(at time.Duration, ev core.Event) {
	c.Sim.ScheduleAt(at, func() { _ = core.TriggerOn(c.Exp, ev) })
}
