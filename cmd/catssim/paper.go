package main

// The paper entries print the evaluation tables of DESIGN.md §3. Absolute
// numbers depend on the machine; the shapes (monotone compression decay,
// sub-millisecond latency, near-linear scaling, batch advantage) are the
// reproduction targets.

import (
	"fmt"
	"io"
	"os"
	"runtime"
	"time"

	"repro/internal/cats"
	"repro/internal/experiments"
	"repro/internal/scenario"
)

// runLocal runs the sim entry's scenario in real time over the in-process
// loopback network: the identical system code, with only the transport,
// timer and scheduler swapped.
func runLocal(w io.Writer, seed int64, _ string) (any, error) {
	sched, err := generate(w, seed)
	if err != nil {
		return nil, err
	}
	c := cats.NewLocalCluster(simTimings, "")
	defer c.Close()

	start := time.Now()
	done, stop := scenario.ExecuteRealTime(sched, c.Exp)
	defer stop()
	<-done
	time.Sleep(simTail)
	c.Rt.WaitQuiescence(10 * time.Second)
	fmt.Fprintf(os.Stderr, "catssim: local execution took %v wall time\n", time.Since(start).Round(time.Millisecond))
	report(w, c.Host.Metrics(), c.Host.AliveCount())
	return nil, nil
}

func runTable1(w io.Writer, seed int64, _ string) (any, error) {
	simTime := 60 * time.Second
	fmt.Fprintln(w, "== Table 1: time compression when simulating the system ==")
	fmt.Fprintln(w, "   (paper: 4275 s simulated; 64 peers → 475x ... 8192 peers → 2.01x, ~1x at 16384)")
	fmt.Fprintf(w, "   (here: %v simulated per row, steady-state lookup workload)\n\n", simTime)
	fmt.Fprintf(w, "%8s  %14s  %14s  %12s  %12s\n", "Peers", "Simulated", "Wall", "Compression", "Events")
	for _, n := range []int{64, 128, 256, 512, 1024} {
		r := experiments.Table1(seed, n, simTime)
		fmt.Fprintf(w, "%8d  %14v  %14v  %11.2fx  %12d\n",
			r.Peers, r.SimulatedDuration.Round(time.Millisecond),
			r.WallDuration.Round(time.Millisecond), r.Compression, r.DiscreteEvents)
	}
	return nil, nil
}

func runLatency(w io.Writer, _ int64, _ string) (any, error) {
	const ops = 2000
	fmt.Fprintln(w, "== C1: end-to-end operation latency, in-process cluster ==")
	fmt.Fprintln(w, "   (paper: sub-millisecond get/put on LAN, replication degree 5, incl.")
	fmt.Fprintln(w, "    2 quorum round-trips, 4x serialization, 4x deserialization)")
	fmt.Fprintln(w)
	fmt.Fprintf(w, "%6s %5s %13s %10s  %10s  %10s  %10s  %10s  %8s\n",
		"Nodes", "Repl", "Codec", "ValueSize", "Mean", "P50", "P99", "Max", "<1ms")
	for _, cfg := range []struct {
		repl  int
		codec string
	}{{3, "binary"}, {5, "binary"}, {5, "gob"}, {5, "gob+zlib"}} {
		r, err := experiments.Latency(8, cfg.repl, 1024, ops, cfg.codec)
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(w, "%6d %5d %13s %10d  %10v  %10v  %10v  %10v  %7.1f%%\n",
			r.Nodes, r.Replication, r.Codec, r.ValueSize,
			r.Mean.Round(time.Microsecond), r.P50.Round(time.Microsecond),
			r.P99.Round(time.Microsecond), r.Max.Round(time.Microsecond),
			100*r.SubMilli)
	}
	return nil, nil
}

func runScaling(w io.Writer, seed int64, _ string) (any, error) {
	const opsPerNode = 400
	fmt.Fprintln(w, "== C2: read throughput vs cluster size (simulated, closed loop) ==")
	fmt.Fprintln(w, "   (paper: read-intensive 1 KiB workload scaled to 96 machines at ~100,000 reads/s;")
	fmt.Fprintln(w, "    the reproduction target is the near-linear shape, not the absolute rate)")
	fmt.Fprintln(w)
	fmt.Fprintf(w, "%8s  %10s  %8s  %16s  %14s  %12s\n",
		"Nodes", "Ops", "Failed", "Aggregate ops/s", "Per-node ops/s", "Mean latency")
	base := 0.0
	for _, n := range []int{8, 16, 32, 48, 64, 96} {
		r := experiments.Scaling(seed, n, 8, opsPerNode)
		scaleNote := ""
		if base == 0 {
			base = r.ThroughputPS / float64(r.Nodes)
		} else {
			scaleNote = fmt.Sprintf("  (%.2fx linear)", r.PerNodePS/base)
		}
		fmt.Fprintf(w, "%8d  %10d  %8d  %16.0f  %14.0f  %12v%s\n",
			r.Nodes, r.Ops, r.Failed, r.ThroughputPS, r.PerNodePS,
			r.MeanLatency.Round(100*time.Microsecond), scaleNote)
	}
	return nil, nil
}

// runStealing prints the wall-clock side of C3. The exact steal-operation
// counts per policy are pinned by TestStealBatchPolicyOpCounts in
// internal/core; this table shows what they buy on this machine.
func runStealing(w io.Writer, _ int64, _ string) (any, error) {
	const components, events = 512, 2000
	// At least 4 workers so the stealing machinery engages even on hosts
	// with few cores (on a single-core host this measures the mechanism's
	// behaviour and overhead, not parallel speedup).
	workers := max(runtime.NumCPU(), 4)
	fmt.Fprintln(w, "== C3: work-stealing batch ablation ==")
	fmt.Fprintln(w, "   (paper: stealing a batch of half the victim's ready components shows a")
	fmt.Fprintln(w, "    considerable improvement over stealing small numbers; all readiness is")
	fmt.Fprintln(w, "    placed on one worker queue to maximize stealing pressure)")
	fmt.Fprintln(w)
	fmt.Fprintf(w, "%8s  %6s  %10s  %12s  %12s  %10s  %10s\n",
		"Workers", "Batch", "Events", "Wall", "Events/ms", "Steals", "Stolen")
	for _, batchHalf := range []bool{false, true} {
		r := experiments.Stealing(workers, components, events, batchHalf)
		fmt.Fprintf(w, "%8d  %6s  %10d  %12v  %12.0f  %10d  %10d\n",
			r.Workers, r.Batch, r.Events, r.Wall.Round(time.Millisecond),
			r.EventsPerMS, r.Steals, r.Stolen)
	}
	return nil, nil
}
