package experiments

import (
	"math/rand"
	"sort"
	"strconv"
	"time"

	"repro/internal/cats"
	"repro/internal/core"
	"repro/internal/ident"
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

	ring := tracing.NewRing(1 << 14)
	prevRing := tracing.SwapDefault(ring)
	prevSample := tracing.SetSampleEvery(1)
	defer func() {
		tracing.SetSampleEvery(prevSample)
		tracing.SwapDefault(prevRing)
	}()

	// Every frame round-trips through the sender's codec, starting on gob
	// for all nodes; swaps move individual nodes to binary and gob+zlib
	// mid-run, so both formats cross the wire within one scenario.
	sim, emu, host, exp := buildSimClusterEmu(seed, cfg.Nodes, simNodeConfig(),
		[]simulation.EmulatorOption{simulation.WithEmulatedCodec("gob")}, simOpts...)
	host.RecordOps = true

	refs := host.AliveNodes()
	rng := rand.New(rand.NewSource(seed ^ 0x63647377)) // "cdsw"

	// Workload: same shape as the churn scenario — first op per key is a
	// put, the rest a put/get mix at random coordinators over the window.
	type schedOp struct {
		at time.Duration
		ev core.Event
	}
	var ops []schedOp
	keyName := func(i int) string { return "swap-" + strconv.Itoa(i) }
	for k := 0; k < cfg.Keys; k++ {
		key := keyName(k)
		for i := 0; i < cfg.OpsPerKey; i++ {
			at := time.Duration(rng.Int63n(int64(cfg.OpWindow)))
			if i == 0 {
				at = time.Duration(rng.Int63n(int64(cfg.OpWindow) / 4))
			}
			node := ident.Key(rng.Uint64())
			if i == 0 || rng.Float64() < 0.5 {
				val := []byte("v-" + strconv.Itoa(k) + "-" + strconv.Itoa(i))
				ops = append(ops, schedOp{at, cats.OpPut{NodeKey: node, Key: key, Value: val}})
			} else {
				ops = append(ops, schedOp{at, cats.OpGet{NodeKey: node, Key: key}})
			}
		}
	}
	sort.SliceStable(ops, func(i, j int) bool { return ops[i].at < ops[j].at })
	for _, op := range ops {
		ev := op.ev
		sim.ScheduleAt(op.at, "codecswap:op", func() { _ = core.TriggerOn(exp, ev) })
	}

	// Live swaps under traffic: each picks a node and moves it to the next
	// codec in the rotation. Spread over the middle of the window so plenty
	// of operations straddle each swap point.
	rotation := []string{"binary", "gob+zlib", "gob"}
	for i := 0; i < cfg.Swaps; i++ {
		at := cfg.OpWindow/8 + time.Duration(rng.Int63n(int64(cfg.OpWindow)*3/4))
		victim := refs[rng.Intn(len(refs))].Addr
		name := rotation[i%len(rotation)]
		sim.ScheduleAt(at, "codecswap:swap", func() { emu.SwapCodec(victim, name) })
	}

	// Link flaps overlapping the swaps: the emulator analog of a TCP
	// connection breaking and redialing mid-swap.
	for i := 0; i < cfg.Flaps; i++ {
		at := cfg.OpWindow/8 + time.Duration(rng.Int63n(int64(cfg.OpWindow)*3/4))
		a := refs[rng.Intn(len(refs))].Addr
		b := refs[rng.Intn(len(refs))].Addr
		if a == b {
			continue
		}
		down := cfg.FlapDown
		sim.ScheduleAt(at, "codecswap:flap", func() {
			emu.FlapLink(a, b, down)
			emu.FlapLink(b, a, down)
		})
	}

	mainStats := sim.Run(cfg.OpWindow + cfg.Tail)

	// Audit: one read per key after everything settles.
	preAudit := len(host.OpHistory())
	keys := make([]string, cfg.Keys)
	for k := range keys {
		key := keyName(k)
		keys[k] = key
		sim.ScheduleAt(0, "codecswap:audit", func() {
			_ = core.TriggerOn(exp, cats.OpGet{NodeKey: ident.Key(rng.Uint64()), Key: key})
		})
	}
	auditStats := sim.Run(simNodeConfig().OpTimeout * 3)

	res := CodecSwapResult{
		Nodes:             cfg.Nodes,
		Keys:              cfg.Keys,
		HistoryAudit:      auditHistory(host, preAudit, keys),
		SimulatedDuration: mainStats.SimulatedDuration + auditStats.SimulatedDuration,
		DiscreteEvents:    mainStats.DiscreteEvents + auditStats.DiscreteEvents,
		HandlerExecutions: mainStats.HandlerExecutions + auditStats.HandlerExecutions,
	}
	res.CodecSwaps, res.BinaryFrames, res.GobFrames, res.CodecErrors = emu.CodecStats()
	_, _, res.Flaps, _ = emu.ChurnStats()

	res.TraceDigest = TimelineDigest(tracing.Assemble(ring.Snapshot()))
	return res
}
