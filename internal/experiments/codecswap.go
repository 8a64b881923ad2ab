package experiments

import (
	"math/rand"
	"strconv"
	"time"

	"repro/internal/cats"
	"repro/internal/simulation"
	"repro/internal/tracing"
)

// The live codec-swap chaos scenario's shape: a simulated CATS cluster
// serving quorum traffic while nodes swap their wire codec underneath it
// (gob → binary → gob+zlib) and links flap — the emulator analog of a
// mid-swap TCP redial.
const (
	swapNodes     = 5                      // cluster size
	swapKeys      = 6                      // distinct data keys under test
	swapOpsPerKey = 12                     // operations per key, excluding the final audit read
	swapSwaps     = 6                      // per-node live codec swaps under traffic
	swapFlaps     = 3                      // symmetric link flaps overlapping the swaps
	swapFlapDown  = 800 * time.Millisecond // how long a flapped link stays down
	swapOpWindow  = 40 * time.Second       // virtual-time window the workload and swaps are spread over
	swapTail      = 15 * time.Second       // settle time after the window before the audit reads
)

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
func CodecSwap(seed int64, simOpts ...simulation.SimOption) CodecSwapResult {
	ring, restore := traceEveryOp(1 << 14)
	defer restore()

	// Every frame round-trips through the sender's codec, starting on gob
	// for all nodes; swaps move individual nodes to binary and gob+zlib
	// mid-run, so both formats cross the wire within one scenario.
	c := cats.NewSimCluster(seed, simTimings, "", simLAN(simulation.WithEmulatedCodec("gob")), simOpts...)
	c.Host.RecordOps = true
	c.Join(spreadKeys(swapNodes))
	refs := c.Host.AliveNodes()
	rng := rand.New(rand.NewSource(seed ^ 0x63647377)) // "cdsw"

	// Workload: same shape as the churn scenario.
	keys := make([]string, swapKeys)
	for k := range keys {
		keys[k] = "swap-" + strconv.Itoa(k)
	}
	scheduleKeyOps(c, rng, "codecswap", keys, swapOpsPerKey, swapOpWindow, 0.5, "")

	// Live swaps under traffic: each picks a node and moves it to the next
	// codec in the rotation. Spread over the middle of the window so plenty
	// of operations straddle each swap point.
	rotation := []string{"binary", "gob+zlib", "gob"}
	for i := 0; i < swapSwaps; i++ {
		at := swapOpWindow/8 + time.Duration(rng.Int63n(int64(swapOpWindow)*3/4))
		victim := refs[rng.Intn(len(refs))].Addr
		name := rotation[i%len(rotation)]
		c.Sim.ScheduleAt(at, "codecswap:swap", func() { c.Emu.SwapCodec(victim, name) })
	}

	// Link flaps overlapping the swaps: the emulator analog of a TCP
	// connection breaking and redialing mid-swap.
	scheduleFlaps(c, rng, "codecswap", swapFlaps, swapOpWindow/8, swapOpWindow*3/4, swapFlapDown)

	mainStats := c.Sim.Run(swapOpWindow + swapTail)

	// Audit: one read per key after everything settles.
	preAudit := scheduleAudit(c, rng, "codecswap", keys)
	auditStats := c.Sim.Run(simTimings.OpTimeout * 3)

	res := CodecSwapResult{
		Nodes:             swapNodes,
		Keys:              swapKeys,
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
