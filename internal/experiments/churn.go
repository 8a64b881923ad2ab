package experiments

import (
	"math/rand"
	"strconv"
	"time"

	"repro/internal/cats"
	"repro/internal/simulation"
)

// The chaos scenario's fixed shape; ChurnConfig holds what its variants
// change.
const (
	churnNodes     = 6                      // cluster size
	churnKeys      = 6                      // distinct data keys under test
	churnOpsPerKey = 10                     // put/get operations per key, excluding the final audit read
	churnFlaps     = 4                      // symmetric link flaps
	churnFlapDown  = 900 * time.Millisecond // how long a flapped link (and the partition) stays down
)

// ChurnConfig parameterizes the chaos scenario: a simulated CATS cluster
// serving quorum reads and writes while nodes crash and restart and links
// flap and heal underneath it.
type ChurnConfig struct {
	Crashes   int           // sequential crash→restart cycles (default 3)
	CrashDown time.Duration // how long a crashed node stays off the network (default 8s)
	OpWindow  time.Duration // virtual-time window the workload and churn are spread over (default 60s)
	Tail      time.Duration // settle time after the window before the audit reads (default 25s)

	// DataDir, when non-empty, runs every node on a durable store
	// (per-node WAL + snapshots under this root, sync=always) so the
	// chaos scenario also exercises the write-ahead path under churn.
	// For a deterministic two-run diff the directory must start empty
	// each run — recovery replay of a previous run's state shifts the
	// WAL counters.
	DataDir string
}

func (c *ChurnConfig) applyDefaults() {
	if c.Crashes <= 0 {
		c.Crashes = 3
	}
	if c.CrashDown <= 0 {
		// Longer than the 6s suspicion threshold (FDInterval 2s × 3
		// misses): crashed nodes ARE evicted, groups reconfigure, and the
		// epoch/handoff machinery must carry state across — the case the
		// scenario exists to prove.
		c.CrashDown = 8 * time.Second
	}
	if c.OpWindow <= 0 {
		c.OpWindow = 60 * time.Second
	}
	if c.Tail <= 0 {
		c.Tail = 25 * time.Second
	}
}

// LongOutageChurnConfig is the chaos variant with outages double the
// suspicion threshold: fewer, longer crash windows, so evicted nodes sit
// dark long enough for several stabilization rounds to repair the ring
// around them before they rejoin and pull state back.
func LongOutageChurnConfig() ChurnConfig {
	return ChurnConfig{
		Crashes:   2,
		CrashDown: 12 * time.Second,
		OpWindow:  60 * time.Second,
		Tail:      30 * time.Second,
	}
}

// Churn runs the chaos scenario: quorum puts/gets over a simulated CATS
// cluster while the network emulator injects crash-restart churn and link
// flaps, all in virtual time from one seed. It returns the recorded
// history's linearizability verdict and an explicit lost-acknowledged-write
// audit (after every fault heals, a final read per key must observe some
// acknowledged value).
//
// Default fault windows EXCEED the failure detector's suspicion threshold
// (FDInterval × SuspectAfterMisses = 6s): the ring evicts the crashed
// node, replica groups reconfigure into a new epoch, and the handoff
// component pulls the covered ranges before the survivors ack in it. The
// zero-lost-acked-writes audit therefore exercises the full
// reconfiguration path — epoch fencing, state transfer, and rejoin of the
// evicted node — not just transport resilience.
func Churn(seed int64, cfg ChurnConfig, simOpts ...simulation.SimOption) Result {
	cfg.applyDefaults()
	return runFaults(seed, faultSpec{
		nodes: spreadKeys(churnNodes),
		// A durable run snapshots every 4 KiB of WAL, so even a short run
		// truncates logs under churn.
		cfg:      chaosTimings(1 << 12),
		dataDir:  cfg.DataDir,
		salt:     0x6368726e, // "chrn"
		window:   cfg.OpWindow + cfg.Tail,
		auditFor: simTimings.OpTimeout * 3,
		setup: func(c *cats.SimCluster, rng *rand.Rand) []cats.OpGet {
			keys := make([]string, churnKeys)
			for k := range keys {
				keys[k] = "churn-" + string(rune('a'+k%26)) + "-" + strconv.Itoa(k)
			}
			scheduleKeyOps(c, rng, keys, churnOpsPerKey, cfg.OpWindow, 0.5, "")
			scheduleCrashes(c, rng, cfg.Crashes, cfg.OpWindow, cfg.CrashDown)

			// Link flaps heal by virtual-time expiry; one partition is
			// explicitly healed.
			scheduleFlaps(c, rng, churnFlaps, 0, cfg.OpWindow, churnFlapDown)
			partAt := cfg.OpWindow / 2
			refs := c.Host.AliveNodes()
			isolated := refs[rng.Intn(len(refs))].Addr
			c.Sim.ScheduleAt(partAt, func() { c.Emu.Partition(1, isolated) })
			c.Sim.ScheduleAt(partAt+churnFlapDown, func() { c.Emu.Heal() })
			return auditReads(rng, keys)
		},
	}, simOpts)
}
