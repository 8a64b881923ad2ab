package main

// The paper entries are the one driver of the paper's evaluation (DESIGN.md
// §3). Each prints one markdown section of EXPERIMENTS.md: the paper's
// claim, the setup and hardware, the measured table, and shape lines
// computed from its rows, so `catssim run paper > EXPERIMENTS.md`
// regenerates the file. A shape that does not hold reads "no".

import (
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro/internal/cats"
	"repro/internal/experiments"
	"repro/internal/scenario"
)

// preamble opens EXPERIMENTS.md. The local entry, the first paper entry in
// the registry, prints it.
const preamble = `# EXPERIMENTS — paper-reported vs. measured

This file is the standard output of the paper entries of catssim
(` + "`catssim list paper`" + `). Regenerate it with:

` + "```" + `
go run ./cmd/catssim run paper > EXPERIMENTS.md
` + "```" + `

Every measured number below comes from that run, on the hardware each
section names. The paper measured 2012 multi-core hardware, PlanetLab, a
local cluster and Rackspace (96 machines), so absolute values do not
compare; the reproduction targets are the shapes. Each section ends with
shape lines computed from its own rows; a shape that does not hold reads
"no". DESIGN.md §2 lists the substitutions (Go for the JVM, a binary codec
for Kryo, ABD for CATS consistent quorums, one machine for the testbeds).
` + "`catssim run gate`" + ` checks deterministic replay; ` + "`make bench-dispatch`" + ` runs the
framework microbenchmarks, whose numbers are not copied here.
`

// section is one markdown section of EXPERIMENTS.md.
type section struct {
	title  string
	claim  string // what the paper reports
	setup  string // what was run, and how
	header []string
	rows   [][]string
	shape  []string // computed from rows
}

// write prints the section, stating the hardware it ran on.
func (s section) write(w io.Writer, hw string) {
	fmt.Fprintf(w, "\n## %s\n\n**Paper:** %s\n\n**Measured:** %s\n\n**Hardware:** %s\n\n", s.title, s.claim, s.setup, hw)
	fmt.Fprintf(w, "| %s |\n|", strings.Join(s.header, " | "))
	for range s.header {
		fmt.Fprint(w, "---:|")
	}
	fmt.Fprintln(w)
	for _, r := range s.rows {
		fmt.Fprintf(w, "| %s |\n", strings.Join(r, " | "))
	}
	fmt.Fprint(w, "\n**Shape:**\n\n")
	for _, l := range s.shape {
		fmt.Fprintf(w, "- %s\n", l)
	}
}

// hardware names the machine this process runs on: CPU model, logical
// CPUs, OS/architecture and Go version.
func hardware() string {
	model := "unknown CPU"
	info, _ := os.ReadFile("/proc/cpuinfo") // Linux only; elsewhere the model stays unknown
	for _, l := range strings.Split(string(info), "\n") {
		if k, v, ok := strings.Cut(l, ":"); ok && strings.TrimSpace(k) == "model name" {
			model = strings.TrimSpace(v)
			break
		}
	}
	return fmt.Sprintf("%s, %d logical CPUs, %s/%s, %s", model, runtime.NumCPU(), runtime.GOOS, runtime.GOARCH, runtime.Version())
}

func yesNo(b bool) string {
	if b {
		return "yes"
	}
	return "no"
}

// ratio formats a/b as a multiplier.
func ratio(a, b float64) string { return fmt.Sprintf("%.2f×", a/b) }

// Sizes of the paper entries. A new size is a new entry, not a flag.
const (
	table1SimTime                       = 60 * time.Second
	latencyOps                          = 2000
	scalingClients, scalingOpsPerNode   = 8, 400
	stealComponents, stealEventsPerComp = 512, 2000
	// stealRepeats is the number of interleaved runs per C3 policy: one
	// run each reads either policy as faster on a small box, so the
	// verdict compares the quartiles of all of them.
	stealRepeats = 7
)

// runLocal runs the sim entry's scenario in real time over the in-process
// loopback network: the identical system code, with only the transport,
// timer and scheduler swapped.
func runLocal(w io.Writer, seed int64, _ string) (any, error) {
	sched, err := buildScenario().Generate(seed)
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
	fmt.Fprint(w, preamble)
	localSection(seed, c.Host.Metrics(), c.Host.AliveCount(), time.Since(start)).write(w, hardware())
	return nil, nil
}

func localSection(seed int64, m cats.Metrics, alive int, wall time.Duration) section {
	_, mean, _, maxLat := m.LatencyStats()
	return section{
		title: "Figure 12 — one scenario, simulated and in real time (paper §4.3–4.4)",
		claim: "the same component code runs under deterministic simulation and in real time on the " +
			"multi-core runtime; one experiment scenario drives both, and only the injected transport, timer " +
			"and scheduler differ.",
		setup: fmt.Sprintf("`catssim run local` (seed %d): the `sim` gate entry's scenario — %d joins, then "+
			"churn (%d joins and %d failures) alongside %d lookups and %d puts and gets — executed in real time "+
			"on the work-stealing runtime over the in-process loopback network (`cats.NewLocalCluster`), "+
			"followed by a %v tail. Latency covers lookups and puts/gets.",
			seed, simBoot, simChurn/2, simChurn/2, simLookups, simOps, simTail),
		header: []string{"Joins", "Fails", "Alive", "Skipped", "Lookups (empty)", "Puts ok / failed",
			"Gets ok / failed", "Mean latency", "Max latency", "Wall"},
		rows: [][]string{{
			fmt.Sprint(m.Joins), fmt.Sprint(m.Fails), fmt.Sprint(alive), fmt.Sprint(m.Skipped),
			fmt.Sprintf("%d (%d)", m.Lookups, m.LookupsEmpty),
			fmt.Sprintf("%d / %d", m.PutsOK, m.PutsFailed), fmt.Sprintf("%d / %d", m.GetsOK, m.GetsFailed),
			mean.Round(time.Microsecond).String(), maxLat.Round(time.Millisecond).String(),
			wall.Round(time.Millisecond).String(),
		}},
		shape: []string{
			fmt.Sprintf("every scenario command found a live node on the real-time runtime (none skipped): %s", yesNo(m.Skipped == 0)),
			fmt.Sprintf("puts and gets that failed during churn: %d of %d",
				m.PutsFailed+m.GetsFailed, m.PutsOK+m.PutsFailed+m.GetsOK+m.GetsFailed),
		},
	}
}

func runTable1(w io.Writer, seed int64, _ string) (any, error) {
	var rows []experiments.Table1Result
	for _, n := range []int{64, 128, 256, 512, 1024} {
		rows = append(rows, experiments.Table1(seed, n, table1SimTime))
	}
	table1Section(seed, rows).write(w, hardware())
	return nil, nil
}

func table1Section(seed int64, rows []experiments.Table1Result) section {
	s := section{
		title: "Table 1 — simulation time compression vs. system size (paper §4.2)",
		claim: "simulating the whole CATS system for 4275 s of simulated time runs 475× faster than real " +
			"time at 64 peers, then 237.5× (128), 118.75× (256), 59.38× (512), 28.31× (1024), 11.74× (2048), " +
			"4.96× (4096) and 2.01× (8192), reaching about 1× at 16384 peers.",
		setup: fmt.Sprintf("`catssim run table1` (seed %d): boot and converge N peers, then simulate %v "+
			"of a steady lookup workload, one lookup per peer per simulated second. Only the steady state is "+
			"measured: wall time, discrete events, and heap allocations over that run.", seed, table1SimTime),
		header: []string{"Peers", "Simulated", "Wall", "Compression", "Discrete events", "Allocs/event"},
	}
	falling := true
	var chain []string
	crossing := ""
	for i, x := range rows {
		s.rows = append(s.rows, []string{
			fmt.Sprint(x.Peers), x.SimulatedDuration.Round(time.Millisecond).String(),
			x.WallDuration.Round(time.Millisecond).String(), fmt.Sprintf("%.2f×", x.Compression),
			fmt.Sprint(x.DiscreteEvents), fmt.Sprintf("%.1f", float64(x.Allocs)/float64(max(x.DiscreteEvents, 1))),
		})
		chain = append(chain, fmt.Sprintf("%.2f×", x.Compression))
		if i > 0 && x.Compression >= rows[i-1].Compression {
			falling = false
		}
		if crossing == "" && x.Compression < 1 {
			crossing = fmt.Sprintf("below 1× already at %d peers", x.Peers)
			if i > 0 {
				crossing = fmt.Sprintf("between %d and %d peers", rows[i-1].Peers, x.Peers)
			}
		}
	}
	if crossing == "" {
		crossing = "not within the measured rows"
	}
	s.shape = []string{
		fmt.Sprintf("compression falls at every step in peers: %s (%s)", yesNo(falling), strings.Join(chain, " → ")),
		fmt.Sprintf("real time (1×) crossed: %s (paper: about 16384 peers)", crossing),
	}
	return s
}

func runLatency(w io.Writer, _ int64, _ string) (any, error) {
	var rows []experiments.LatencyResult
	for _, cfg := range []struct {
		repl  int
		codec string
	}{{3, "binary"}, {5, "binary"}, {5, "gob"}, {5, "gob+zlib"}} {
		x, err := experiments.Latency(8, cfg.repl, 1024, latencyOps, cfg.codec)
		if err != nil {
			return nil, err
		}
		rows = append(rows, x)
	}
	latencySection(rows).write(w, hardware())
	return nil, nil
}

func latencySection(rows []experiments.LatencyResult) section {
	s := section{
		title: "C1 — end-to-end operation latency (paper §4.1)",
		claim: "\"sub-millisecond end-to-end latencies for get and put operations\" on a LAN at replication " +
			"degree 5, including two message round-trips (4 one-way latencies), 4× serialization, 4× " +
			"encryption, 4× deserialization and runtime dispatch.",
		setup: fmt.Sprintf("`catssim run latency`: an 8-node in-process cluster over the loopback transport "+
			"(`cats.NewLocalCluster`; the load starts once `cats.AwaitReady` holds), every message encoded and "+
			"decoded by the named wire codec (`binary` is the shipped default), one closed-loop client, 1 KiB "+
			"values, %d operations, half gets and half puts.", latencyOps),
		header: []string{"Nodes", "Repl", "Codec", "Ops", "Mean", "P50", "P99", "Max", "<1 ms"},
	}
	mean := make(map[string]float64) // codec → mean at replication 5
	for _, x := range rows {
		s.rows = append(s.rows, []string{
			fmt.Sprint(x.Nodes), fmt.Sprint(x.Replication), x.Codec, fmt.Sprint(x.Ops),
			x.Mean.Round(time.Microsecond).String(), x.P50.Round(time.Microsecond).String(),
			x.P99.Round(time.Microsecond).String(), x.Max.Round(time.Microsecond).String(),
			fmt.Sprintf("%.1f%%", 100*x.SubMilli),
		})
		if x.Replication == 5 {
			mean[x.Codec] = float64(x.Mean)
			if x.Codec == "binary" {
				s.shape = append(s.shape, fmt.Sprintf(
					"median under 1 ms with the shipped codec at replication 5: %s (p50 %v, p99 %v, %.1f%% of ops under 1 ms)",
					yesNo(x.P50 < time.Millisecond), x.P50.Round(time.Microsecond), x.P99.Round(time.Microsecond), 100*x.SubMilli))
			}
		}
	}
	if g, b := mean["gob"], mean["binary"]; g > 0 && b > 0 {
		s.shape = append(s.shape, fmt.Sprintf("mean latency, gob ÷ binary at replication 5: %s", ratio(g, b)))
	}
	if z, g := mean["gob+zlib"], mean["gob"]; z > 0 && g > 0 {
		s.shape = append(s.shape, fmt.Sprintf("mean latency, gob+zlib ÷ gob at replication 5: %s", ratio(z, g)))
	}
	return s
}

func runScaling(w io.Writer, seed int64, _ string) (any, error) {
	var rows []experiments.ScalingResult
	for _, n := range []int{8, 16, 32, 48, 64, 96} {
		rows = append(rows, experiments.Scaling(seed, n, scalingClients, scalingOpsPerNode))
	}
	scalingSection(seed, rows).write(w, hardware())
	return nil, nil
}

// linearBand is how far per-node throughput may fall below the smallest
// cluster's before the scaling shape stops counting as near-linear.
const linearBand = 0.10

func scalingSection(seed int64, rows []experiments.ScalingResult) section {
	s := section{
		title: "C2 — read throughput vs. cluster size (paper §4.1)",
		claim: "\"for read-intensive workloads, reading 1 KB values, CATS scaled on Rackspace to 96 machines " +
			"providing just over 100,000 reads/sec\": aggregate throughput near-linear in the number of nodes.",
		setup: fmt.Sprintf("`catssim run scaling` (seed %d): simulated clusters in which every node has its own "+
			"emulated network capacity, a closed-loop workload of 95%% reads of 1 KiB values, %d clients and %d "+
			"operations per node. Throughput is completed operations per simulated second, so it measures the "+
			"protocol stack, not this machine's CPU.", seed, scalingClients, scalingOpsPerNode),
		header: []string{"Nodes", "Ops", "Failed", "Aggregate ops/s", "Per-node ops/s", "Per-node vs first row", "Mean latency"},
	}
	if len(rows) == 0 {
		return s
	}
	base, worst, last := rows[0], rows[0], rows[len(rows)-1]
	rising, linear := true, true
	for i, x := range rows {
		s.rows = append(s.rows, []string{
			fmt.Sprint(x.Nodes), fmt.Sprint(x.Ops), fmt.Sprint(x.Failed),
			fmt.Sprintf("%.0f", x.ThroughputPS), fmt.Sprintf("%.0f", x.PerNodePS),
			ratio(x.PerNodePS, base.PerNodePS), x.MeanLatency.Round(100 * time.Microsecond).String(),
		})
		if i > 0 && x.ThroughputPS <= rows[i-1].ThroughputPS {
			rising = false
		}
		if x.PerNodePS < (1-linearBand)*base.PerNodePS {
			linear = false
		}
		if x.PerNodePS < worst.PerNodePS {
			worst = x
		}
	}
	s.shape = []string{
		fmt.Sprintf("aggregate throughput rises at every step in nodes: %s (%.0f → %.0f ops/s)",
			yesNo(rising), base.ThroughputPS, last.ThroughputPS),
		fmt.Sprintf("per-node throughput, %d ÷ %d nodes: %s", last.Nodes, base.Nodes, ratio(last.PerNodePS, base.PerNodePS)),
		fmt.Sprintf("near-linear (per-node throughput within %.0f%% of the %d-node row at every size): %s (lowest %s, at %d nodes)",
			100*linearBand, base.Nodes, yesNo(linear), ratio(worst.PerNodePS, base.PerNodePS), worst.Nodes),
	}
	return s
}

// runStealing prints the wall-clock side of C3. The exact steal-operation
// counts per policy are pinned by TestStealBatchPolicyOpCounts in
// internal/core; this table shows what they buy on this machine. Each
// policy runs stealRepeats times, interleaved with the other and
// alternating which goes first.
func runStealing(w io.Writer, _ int64, _ string) (any, error) {
	// At least 4 workers so the stealing machinery engages even on hosts
	// with few cores (on a single-core host this measures the mechanism's
	// behaviour and overhead, not parallel speedup).
	workers := max(runtime.NumCPU(), 4)
	var one, half []experiments.StealingResult
	for i := 0; i < stealRepeats; i++ {
		for _, batchHalf := range []bool{i%2 == 1, i%2 == 0} {
			r := experiments.Stealing(workers, stealComponents, stealEventsPerComp, batchHalf)
			if batchHalf {
				half = append(half, r)
			} else {
				one = append(one, r)
			}
		}
	}
	stealingSection(one, half).write(w, hardware())
	return nil, nil
}

// byThroughput sorts runs by events/ms, slowest first, and returns them.
func byThroughput(rs []experiments.StealingResult) []experiments.StealingResult {
	sort.Slice(rs, func(i, j int) bool { return rs[i].EventsPerMS < rs[j].EventsPerMS })
	return rs
}

// quartiles returns the first and third quartile of the sorted runs'
// events/ms, interpolating between neighbouring runs.
func quartiles(sorted []experiments.StealingResult) (q1, q3 float64) {
	at := func(p float64) float64 {
		x := p * float64(len(sorted)-1)
		i := int(x)
		if i+1 >= len(sorted) {
			return sorted[i].EventsPerMS
		}
		return sorted[i].EventsPerMS + (x-float64(i))*(sorted[i+1].EventsPerMS-sorted[i].EventsPerMS)
	}
	return at(0.25), at(0.75)
}

// stealingSection renders C3 from every run of each policy: each row is
// the policy's median run, with the quartiles of all its runs beside it.
// The faster policy is named only when the two inter-quartile ranges do
// not overlap; otherwise the difference is within the runs' noise.
func stealingSection(one, half []experiments.StealingResult) section {
	one, half = byThroughput(one), byThroughput(half)
	oneQ1, oneQ3 := quartiles(one)
	halfQ1, halfQ3 := quartiles(half)
	medOne, medHalf := one[len(one)/2], half[len(half)/2]
	faster := "within noise"
	if halfQ1 > oneQ3 || oneQ1 > halfQ3 {
		faster = yesNo(halfQ1 > oneQ3)
	}
	return section{
		title: "C3 — work-stealing batch ablation (paper §3)",
		claim: "\"batching shows a considerable performance improvement over stealing small numbers of ready components.\"",
		setup: fmt.Sprintf("`catssim run stealing`: one worker per CPU and at least 4, %d components × %d "+
			"events of a short spin each, every readiness placed on worker 0's queue (maximal imbalance). "+
			"Each policy runs %d times, interleaved with the other and alternating which goes first; each row "+
			"is the policy's median run by events/ms, with the quartiles of all its runs. A policy is called "+
			"faster only when the two inter-quartile ranges do not overlap. The exact steal-operation counts "+
			"per policy are pinned, single-threaded, by `TestStealBatchPolicyOpCounts` in `internal/core`.",
			stealComponents, stealEventsPerComp, stealRepeats),
		header: []string{"Workers", "Batch", "Events", "Wall", "Events/ms", "Events/ms Q1–Q3", "Steals", "Stolen"},
		rows:   [][]string{stealingRow(medOne, oneQ1, oneQ3), stealingRow(medHalf, halfQ1, halfQ3)},
		shape: []string{
			fmt.Sprintf("batch=half throughput ÷ batch=one, medians: %s; batch=half faster: %s",
				ratio(medHalf.EventsPerMS, medOne.EventsPerMS), faster),
			fmt.Sprintf("steal operations, batch=one ÷ batch=half: %s", ratio(float64(medOne.Steals), float64(medHalf.Steals))),
		},
	}
}

func stealingRow(x experiments.StealingResult, q1, q3 float64) []string {
	return []string{fmt.Sprint(x.Workers), x.Batch, fmt.Sprint(x.Events), x.Wall.Round(time.Millisecond).String(),
		fmt.Sprintf("%.0f", x.EventsPerMS), fmt.Sprintf("%.0f–%.0f", q1, q3), fmt.Sprint(x.Steals), fmt.Sprint(x.Stolen)}
}
