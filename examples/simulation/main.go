// simulation reproduces the paper's §4.4 experiment-scenario walkthrough
// in deterministic whole-system simulation: a boot process of node joins,
// a churn process of interleaved joins and failures, and a lookup process
// — composed sequentially and in parallel with the scenario DSL, executed
// against the CATS simulator in virtual time, twice, to demonstrate
// reproducibility. It exits 1 if the two runs differ.
//
// Run: go run ./examples/simulation
package main

import (
	"fmt"
	"os"
	"time"

	"repro/internal/cats"
	"repro/internal/core"
	"repro/internal/ident"
	"repro/internal/scenario"
	"repro/internal/simulation"
)

// buildScenario mirrors the paper's scenario1: boot, churn after boot
// terminates, lookups in parallel with churn (counts scaled down to keep
// the example fast).
func buildScenario() *scenario.Scenario {
	// The paper draws ring identifiers from [0, 2^16); our identifier
	// space is 2^64, so drawn IDs are scaled onto the full ring (<< 48).
	// Data keys hash uniformly over 2^64 and then spread across all
	// replica groups instead of wrapping onto the lowest-key nodes.
	catsJoin := func(id uint64) core.Event { return cats.JoinNode{Key: ident.Key(id << 48)} }
	catsFail := func(id uint64) core.Event { return cats.FailNode{Key: ident.Key(id << 48)} }
	catsLookup := func(node, key uint64) core.Event {
		return cats.OpLookup{NodeKey: ident.Key(node << 48), Target: ident.Key(key << 48)}
	}

	boot := scenario.NewProcess("boot").
		EventInterArrivalTime(scenario.ExponentialDuration(2 * time.Second))
	scenario.Raise1(boot, 40, catsJoin, scenario.UniformBits(16))

	churn := scenario.NewProcess("churn").
		EventInterArrivalTime(scenario.ExponentialDuration(500 * time.Millisecond))
	scenario.Raise1(churn, 10, catsJoin, scenario.UniformBits(16))
	scenario.Raise1(churn, 10, catsFail, scenario.UniformBits(16))

	catsPut := func(node, key uint64) core.Event {
		return cats.OpPut{NodeKey: ident.Key(node << 48), Key: fmt.Sprintf("key-%d", key), Value: []byte("value")}
	}
	catsGet := func(node, key uint64) core.Event {
		return cats.OpGet{NodeKey: ident.Key(node << 48), Key: fmt.Sprintf("key-%d", key)}
	}

	lookups := scenario.NewProcess("lookups").
		EventInterArrivalTime(scenario.NormalDuration(50*time.Millisecond, 10*time.Millisecond))
	scenario.Raise2(lookups, 500, catsLookup, scenario.UniformBits(16), scenario.UniformBits(14))

	// Quorum operations: puts randomly interleaved with gets (these cross
	// the emulated network, so their latencies are non-zero virtual time).
	ops := scenario.NewProcess("ops").
		EventInterArrivalTime(scenario.NormalDuration(100*time.Millisecond, 20*time.Millisecond))
	scenario.Raise2(ops, 150, catsPut, scenario.UniformBits(16), scenario.UniformBits(8))
	scenario.Raise2(ops, 150, catsGet, scenario.UniformBits(16), scenario.UniformBits(8))

	sc := scenario.New().
		Start(boot).
		StartAfterTerminationOf(churn, 2*time.Second, boot).
		StartAfterStartOf(lookups, 3*time.Second, churn).
		StartAfterStartOf(ops, 4*time.Second, churn)
	sc.TerminateAfterTerminationOf(time.Second, lookups)
	return sc
}

// runOnce executes the scenario with one seed and returns the metrics and
// run stats.
func runOnce(seed int64) (cats.Metrics, simulation.Stats) {
	c := cats.NewSimCluster(seed, cats.NodeConfig{
		FDInterval:        200 * time.Millisecond,
		StabilizePeriod:   300 * time.Millisecond,
		CyclonPeriod:      500 * time.Millisecond,
		RouterEntryTTL:    10 * time.Second,
		RouterSweepPeriod: 2 * time.Second,
	}, "", []simulation.EmulatorOption{
		simulation.WithLatency(simulation.UniformLatency(time.Millisecond, 10*time.Millisecond)),
	})

	sched, err := buildScenario().Generate(seed)
	if err != nil {
		panic(err)
	}
	end := scenario.ExecuteSimulated(c.Sim, sched, c.Exp)
	stats := c.Sim.Run(end + 30*time.Second) // scenario + convergence tail
	return c.Host.Metrics(), stats
}

func main() {
	const seed = 2012
	fmt.Println("simulation: running the paper's boot/churn/lookups scenario, seed", seed)
	m1, st1 := runOnce(seed)
	fmt.Printf("  run 1: joins=%d fails=%d lookups=%d (empty=%d) puts=%d/%d gets=%d/%d skipped=%d\n",
		m1.Joins, m1.Fails, m1.Lookups, m1.LookupsEmpty,
		m1.PutsOK, m1.PutsOK+m1.PutsFailed, m1.GetsOK, m1.GetsOK+m1.GetsFailed, m1.Skipped)
	n, mean, min, max := m1.LatencyStats()
	fmt.Printf("  run 1: %d op latencies: mean=%v min=%v max=%v\n", n, mean, min, max)
	fmt.Printf("  run 1: %v\n", st1)

	m2, _ := runOnce(seed)
	same := m1.Joins == m2.Joins && m1.Fails == m2.Fails &&
		m1.Lookups == m2.Lookups && len(m1.OpLatencies) == len(m2.OpLatencies)
	if same {
		for i := range m1.OpLatencies {
			if m1.OpLatencies[i] != m2.OpLatencies[i] {
				same = false
				break
			}
		}
	}
	fmt.Printf("  run 2 identical to run 1: %v (deterministic simulation)\n", same)

	m3, _ := runOnce(seed + 1)
	fmt.Printf("  different seed: joins=%d fails=%d lookups=%d (a different run)\n",
		m3.Joins, m3.Fails, m3.Lookups)
	if !same {
		os.Exit(1)
	}
}
