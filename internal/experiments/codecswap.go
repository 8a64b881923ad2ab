package experiments

import (
	"math/rand"
	"strconv"
	"time"

	"repro/internal/cats"
	"repro/internal/simulation"
)

// The codec-swap chaos scenario's shape: a simulated CATS cluster serving
// quorum traffic while nodes change their wire codec underneath it (gob →
// binary → gob+zlib), as in a rolling restart onto another -wire-codec,
// and links flap so frames of both formats cross broken and healed links.
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

// CodecSwap runs the live-swap chaos scenario: quorum puts/gets over a
// simulated cluster whose nodes switch wire codecs mid-traffic, with link
// flaps overlapping the swap points. Payloads are self-describing, so a
// swap must never lose or reorder frames: the result carries the recorded
// history's linearizability verdict and the lost-acked-write audit, which
// must both be clean with swaps > 0 and a frame mix spanning both formats.
func CodecSwap(seed int64, simOpts ...simulation.SimOption) Result {
	return runFaults(seed, faultSpec{
		nodes: spreadKeys(swapNodes),
		cfg:   simTimings,
		// Every frame round-trips through the sender's codec, starting on
		// gob for all nodes; swaps move individual nodes to binary and
		// gob+zlib mid-run, so both formats cross the wire within one
		// scenario.
		emu:      []simulation.EmulatorOption{simulation.WithEmulatedCodec("gob")},
		salt:     0x63647377, // "cdsw"
		window:   swapOpWindow + swapTail,
		auditFor: simTimings.OpTimeout * 3,
		setup: func(c *cats.SimCluster, rng *rand.Rand) []cats.OpGet {
			refs := c.Host.AliveNodes()
			// Workload: same shape as the churn scenario.
			keys := make([]string, swapKeys)
			for k := range keys {
				keys[k] = "swap-" + strconv.Itoa(k)
			}
			scheduleKeyOps(c, rng, keys, swapOpsPerKey, swapOpWindow, 0.5, "")

			// Live swaps under traffic: each picks a node and moves it to
			// the next codec in the rotation. Spread over the middle of the
			// window so plenty of operations straddle each swap point.
			rotation := []string{"binary", "gob+zlib", "gob"}
			for i := 0; i < swapSwaps; i++ {
				at := swapOpWindow/8 + time.Duration(rng.Int63n(int64(swapOpWindow)*3/4))
				victim := refs[rng.Intn(len(refs))].Addr
				name := rotation[i%len(rotation)]
				c.Sim.ScheduleAt(at, func() { c.Emu.SwapCodec(victim, name) })
			}

			// Link flaps overlapping the swaps: the emulator analog of a TCP
			// connection breaking and redialing while the cluster's codecs
			// are mixed.
			scheduleFlaps(c, rng, swapFlaps, swapOpWindow/8, swapOpWindow*3/4, swapFlapDown)
			return auditReads(rng, keys)
		},
	}, simOpts)
}
