package experiments

import (
	"math/rand"
	"strconv"
	"time"

	"repro/internal/cats"
	"repro/internal/simulation"
	"repro/internal/tracing"
)

// CodecSwapConfig parameterizes the live codec-swap chaos scenario: a
// simulated CATS cluster serving quorum traffic while nodes swap their
// wire codec underneath it (gob → binary → gob+zlib) and links flap —
// the emulator analog of a mid-swap TCP redial.
type CodecSwapConfig struct {
	Nodes     int           // cluster size (default 5)
	Keys      int           // distinct data keys under test (default 6)
	OpsPerKey int           // operations per key, excluding the final audit read (default 12)
	Swaps     int           // per-node live codec swaps under traffic (default 6)
	Flaps     int           // symmetric link flaps overlapping the swaps (default 3)
	FlapDown  time.Duration // how long a flapped link stays down (default 800ms)
	OpWindow  time.Duration // virtual-time window the workload and swaps are spread over (default 40s)
	Tail      time.Duration // settle time after the window before the audit reads (default 15s)
}

func (c *CodecSwapConfig) applyDefaults() {
	if c.Nodes <= 0 {
		c.Nodes = 5
	}
	if c.Keys <= 0 {
		c.Keys = 6
	}
	if c.OpsPerKey <= 0 {
		c.OpsPerKey = 12
	}
	if c.Swaps <= 0 {
		c.Swaps = 6
	}
	if c.Flaps <= 0 {
		c.Flaps = 3
	}
	if c.FlapDown <= 0 {
		c.FlapDown = 800 * time.Millisecond
	}
	if c.OpWindow <= 0 {
		c.OpWindow = 40 * time.Second
	}
	if c.Tail <= 0 {
		c.Tail = 15 * time.Second
	}
}

// CodecSwapResult reports the scenario outcome. Codec counters come from
// the emulator's local (per-run, deterministic) accounting.
type CodecSwapResult struct {
	Nodes, Keys int
	HistoryAudit

	CodecSwaps   uint64 // live swaps applied under traffic
	BinaryFrames uint64 // frames that crossed the wire in the binary format
	GobFrames    uint64 // frames that crossed the wire in a gob format
	CodecErrors  uint64 // encode/decode failures (must be 0)
	Flaps        uint64

	SimulatedDuration time.Duration
	DiscreteEvents    uint64
	HandlerExecutions uint64
	TraceDigest       uint64
}

// CodecSwap runs the live-swap chaos scenario: quorum puts/gets over a
// simulated cluster whose nodes switch wire codecs mid-traffic, with link
// flaps overlapping the swap points. Payloads are self-describing, so a
// swap must never lose or reorder frames: the result carries the recorded
// history's linearizability verdict and the lost-acked-write audit, which
// must both be clean with swaps > 0 and a frame mix spanning both formats.
func CodecSwap(seed int64, cfg CodecSwapConfig, simOpts ...simulation.SimOption) CodecSwapResult {
	cfg.applyDefaults()

	ring, restore := traceEveryOp(1 << 14)
	defer restore()

	// Every frame round-trips through the sender's codec, starting on gob
	// for all nodes; swaps move individual nodes to binary and gob+zlib
	// mid-run, so both formats cross the wire within one scenario.
	c := cats.NewSimCluster(seed, simTimings, "", simLAN(simulation.WithEmulatedCodec("gob")), simOpts...)
	c.Host.RecordOps = true
	c.Join(spreadKeys(cfg.Nodes))
	refs := c.Host.AliveNodes()
	rng := rand.New(rand.NewSource(seed ^ 0x63647377)) // "cdsw"

	// Workload: same shape as the churn scenario.
	keys := make([]string, cfg.Keys)
	for k := range keys {
		keys[k] = "swap-" + strconv.Itoa(k)
	}
	scheduleKeyOps(c, rng, "codecswap", keys, cfg.OpsPerKey, cfg.OpWindow, 0.5, "")

	// Live swaps under traffic: each picks a node and moves it to the next
	// codec in the rotation. Spread over the middle of the window so plenty
	// of operations straddle each swap point.
	rotation := []string{"binary", "gob+zlib", "gob"}
	for i := 0; i < cfg.Swaps; i++ {
		at := cfg.OpWindow/8 + time.Duration(rng.Int63n(int64(cfg.OpWindow)*3/4))
		victim := refs[rng.Intn(len(refs))].Addr
		name := rotation[i%len(rotation)]
		c.Sim.ScheduleAt(at, "codecswap:swap", func() { c.Emu.SwapCodec(victim, name) })
	}

	// Link flaps overlapping the swaps: the emulator analog of a TCP
	// connection breaking and redialing mid-swap.
	scheduleFlaps(c, rng, "codecswap", cfg.Flaps, cfg.OpWindow/8, cfg.OpWindow*3/4, cfg.FlapDown)

	mainStats := c.Sim.Run(cfg.OpWindow + cfg.Tail)

	// Audit: one read per key after everything settles.
	preAudit := scheduleAudit(c, rng, "codecswap", keys)
	auditStats := c.Sim.Run(simTimings.OpTimeout * 3)

	res := CodecSwapResult{
		Nodes:             cfg.Nodes,
		Keys:              cfg.Keys,
		HistoryAudit:      auditHistory(c.Host, preAudit, keys),
		SimulatedDuration: mainStats.SimulatedDuration + auditStats.SimulatedDuration,
		DiscreteEvents:    mainStats.DiscreteEvents + auditStats.DiscreteEvents,
		HandlerExecutions: mainStats.HandlerExecutions + auditStats.HandlerExecutions,
	}
	res.CodecSwaps, res.BinaryFrames, res.GobFrames, res.CodecErrors = c.Emu.CodecStats()
	_, _, res.Flaps, _ = c.Emu.ChurnStats()

	res.TraceDigest = TimelineDigest(tracing.Assemble(ring.Snapshot()))
	return res
}
