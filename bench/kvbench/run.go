package main

import (
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/tracing"
)

// result is what one run of one workload reports.
type result struct {
	Workload   string
	Seed       int64
	Trace      bool
	NProc      int
	GoMaxProcs int
	Correct    bool
	Attempted  uint64
	Failed     uint64
	Errors     []string
	EndToEnd   map[string]float64
	PerLayer   map[string]float64
	// Ledger is the traced run's per-layer self times (human table only).
	Ledger []ledgerRow
}

type ledgerRow struct {
	Name string
	US   float64
}

func newResult(w workload, cfg config) *result {
	return &result{
		Workload:   w.name,
		Seed:       cfg.seed,
		Trace:      cfg.trace,
		NProc:      runtime.NumCPU(),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		EndToEnd:   map[string]float64{},
		PerLayer:   map[string]float64{},
	}
}

func (r *result) addError(format string, args ...any) {
	if len(r.Errors) < 8 {
		r.Errors = append(r.Errors, fmt.Sprintf(format, args...))
	}
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB reads the process's resident-set high-water mark.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024
		}
	}
	return 0
}

// phaseStats is one phase merged over the three clients.
type phaseStats struct {
	window  time.Duration
	lat     [2][][]uint32
	done    []uint32
	total   uint64
	puts    uint64
	maxGap  int64
	cpuWin  []time.Duration // process CPU time per window
	wall    time.Duration
	perNode []*phase
}

func (p *phaseStats) opsPerSec() float64 {
	rates := make([]float64, len(p.done))
	for i, d := range p.done {
		rates[i] = float64(d) / p.window.Seconds()
	}
	return best(rates, higher)
}

// cpuUSPerOp is the process CPU time a window used over the operations
// completed in it. The main goroutine reads the CPU clock when it wakes at a
// window's end, the clients bin completions by their own timestamps; the two
// disagree by the wake-up's lateness, well under a thousandth of a window.
func (p *phaseStats) cpuUSPerOp() float64 {
	var per []float64
	for i, d := range p.done {
		if d > 0 {
			per = append(per, float64(p.cpuWin[i].Microseconds())/float64(d))
		}
	}
	return best(per, lower)
}

// runPhase drives the drained cluster at the given in-flight counts for
// dur, cut into windows, and drains it again. atWindow, when set, runs on
// the main goroutine at the start of every window; record keeps a record of
// every operation for the trace join.
func (cl *cluster) runPhase(inflight []int, dur, window time.Duration, base time.Time, record bool, atWindow func(i int)) (*phaseStats, error) {
	n := int(dur / window)
	if n < 1 {
		n, window = 1, dur
	}
	start := time.Now()
	ps := &phaseStats{window: window, done: make([]uint32, n), cpuWin: make([]time.Duration, n)}
	for _, c := range cl.clients {
		c.ph = newPhase(int64(start.Sub(base)), window, n)
		c.record = record
		ps.perNode = append(ps.perNode, c.ph)
	}
	cpu0 := cpuTime()
	for i := 0; i < n; i++ {
		if atWindow != nil {
			atWindow(i)
		}
		// Each window moves the load on by one coordinator, so every node
		// coordinates its share of a phase whatever the in-flight counts are.
		load := make([]int, len(inflight))
		for j := range load {
			load[j] = inflight[(i+j)%len(inflight)]
		}
		cl.setLoad(load)
		time.Sleep(time.Until(start.Add(time.Duration(i+1) * window)))
		now := cpuTime()
		ps.cpuWin[i], cpu0 = now-cpu0, now
	}
	if err := cl.drain(); err != nil {
		return nil, err
	}
	ps.wall = time.Since(start)
	for k := range ps.lat {
		ps.lat[k] = make([][]uint32, n)
	}
	for _, c := range cl.clients {
		p := c.ph
		c.ph = nil
		ps.total += p.total
		ps.puts += p.puts
		if p.maxGap > ps.maxGap {
			ps.maxGap = p.maxGap
		}
		for w := 0; w < n; w++ {
			ps.done[w] += p.done[w]
			for k := range ps.lat {
				ps.lat[k][w] = append(ps.lat[k][w], p.lat[k][w]...)
			}
		}
	}
	return ps, nil
}

// bypassChecks asserts that the layers a workload is meant to bypass did no
// work, and that the one it is meant to stress did: a workload that
// silently measured something else is a wrong result, not a slow one.
func bypassChecks(res *result, w workload) {
	pl := res.PerLayer
	check := func(ok bool, format string, args ...any) {
		if !ok {
			res.Failed++
			res.addError(format, args...)
		}
	}
	wire, wal := pl["network.wire_bytes_per_op"], pl["kvstore.wal_appends_per_put"]
	check((wire > 0) == w.tcp, "network.wire_bytes_per_op is %g on %s", wire, w.name)
	check((wal > 0) == w.durable, "kvstore.wal_appends_per_put is %g on %s", wal, w.name)
	if w.sim {
		check(pl["core.steals_per_kop"] == 0, "core.steals_per_kop is %g under the simulation scheduler", pl["core.steals_per_kop"])
	}
}

// runKV runs one of the three key-value workloads.
func runKV(w workload, cfg config) (*result, error) {
	res := newResult(w, cfg)
	tmp, err := os.MkdirTemp(cfg.outDir, "kvbench-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)

	base := time.Now()
	data := newDataset(cfg.seed, cfg.keys, w.valueSize, cfg.sampledKeys)

	// Set-up, several times; only the last cluster is kept. setup_s is the
	// mean: a ring converges in a whole number of one-second stabilization
	// rounds, one to three as the timers fall, and the median of three
	// set-ups flips between two of those where the mean moves by thirds.
	var setups []float64
	var cl *cluster
	for i := 0; i < cfg.setupRounds; i++ {
		if cl != nil {
			cl.stop()
		}
		t0 := time.Now()
		if cl, err = bootCluster(w, cfg, data, tmp, base); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer cl.stop()
	if cfg.corruptOneGet {
		cl.clients[0].corruptOneGet.Store(true)
	}

	// Warm-up (discarded), latency phase, saturation phase.
	tr := newTracer(cfg)
	defer tr.close()
	latDur, satDur := cfg.phaseSplit()
	warm, err := cl.runPhase(satInflight, cfg.warmup, cfg.warmup, base, false, nil)
	if err != nil {
		return nil, err
	}
	tr.plan(float64(warm.total)/warm.wall.Seconds(), latDur, satDur)
	lat, err := cl.runPhase(latInflight, latDur, cfg.window, base, cfg.trace, tr.latWindow)
	if err != nil {
		return nil, err
	}
	tr.endLatency()
	before := clusterCounters(cl)
	sat, err := cl.runPhase(satInflight, satDur, cfg.window, base, false, tr.satWindow)
	if err != nil {
		return nil, err
	}
	tr.endSaturation()
	after := clusterCounters(cl)

	getP50, _ := windowQuantile(lat.lat[kindGet], 0.5)
	putP50, _ := windowQuantile(lat.lat[kindPut], 0.5)
	res.EndToEnd["setup_s"] = mean(setups)
	res.EndToEnd["ops_per_s"] = sat.opsPerSec()
	res.EndToEnd["cpu_us_per_op"] = sat.cpuUSPerOp()
	res.EndToEnd["get_p50_us"] = getP50 / 1e3
	res.EndToEnd["put_p50_us"] = putP50 / 1e3

	pl := res.PerLayer
	layerMetrics(pl, before, after, sat.total, sat.puts, w.valueSize, sat.wall)
	loadgenMetrics(pl, lat, sat)
	var spans []tracing.Span
	var join *clientJoin
	if cfg.trace {
		pl["loadgen.trace_overhead_pct"] = traceOverheadPct(sat)
		pl["loadgen.trace_spans_dropped"] = float64(spansDropped(tr.ring))
		spans = tr.ring.Snapshot()
		join = newClientJoin(base, data, cl, lat)
		spanMetrics(res, spans, join, tr.latEnd, w.readFrac >= 0.5)
		if err := runClusterProbes(tr, pl, cl); err != nil {
			return nil, err
		}
	}

	// Verification.
	for _, c := range cl.clients {
		res.Attempted += c.attempted
		res.Failed += c.failed
		if c.firstErr != "" {
			res.addError("%s", c.firstErr)
		}
	}
	bypassChecks(res, w)
	verifyHistories(res, data, cl.clients)
	if w.durable {
		// Shut down, then reopen each node's data directory from disk alone.
		cl.stop()
		if err := verifyReopened(res, data, cl); err != nil {
			return nil, err
		}
	} else {
		verifyFinal(res, data, cl.clients, liveStores(cl))
		cl.stop()
	}
	res.Correct = res.Failed == 0
	res.EndToEnd["peak_rss_mb"] = peakRSSMB()

	if cfg.trace {
		if err := runProbes(tr, pl, w, cfg, data, tmp); err != nil {
			return nil, err
		}
		pl["kvstore.read_share_pct"] = 100 * pl["kvstore.reads_per_op"] * pl["kvstore.read_ns"] / getP50
		if err := tr.writeSpans(cfg, tmp, w.name, spans, join); err != nil {
			return nil, err
		}
	}
	return res, nil
}
