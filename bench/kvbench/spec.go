package main

import "time"

// workload is one traffic mix. The numbers are constants, not scaled by
// nproc, so a workload is the same inputs on every machine.
type workload struct {
	name      string
	sim       bool
	tcp       bool
	durable   bool
	readFrac  float64
	valueSize int
}

var workloads = []workload{
	{name: "kv_get_mem", readFrac: 0.95, valueSize: 256},
	{name: "kv_put_durable", durable: true, readFrac: 0.05, valueSize: 256},
	{name: "kv_mixed_tcp", tcp: true, readFrac: 0.5, valueSize: 1024},
	{name: "sim_cluster64", sim: true, readFrac: 0.9, valueSize: 64},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// Load constants of the KV workloads.
var (
	latInflight = []int{1, 0, 0}    // latency phase: one op in flight in the whole cluster
	satInflight = []int{11, 11, 10} // saturation phase: 32 in flight
)

// config is one run's settings. Only seed, seconds and trace come from the
// command line; the rest are sizes the tests shrink.
type config struct {
	seed        int64
	seconds     float64
	trace       bool
	keys        int
	sampledKeys int
	setupRounds int
	warmup      time.Duration
	window      time.Duration
	outDir      string
	// probeScale divides the probes' iteration counts.
	probeScale int
	// fastBoot shortens the ring's background periods so a smoke run
	// converges in a fraction of a second.
	fastBoot bool
	// corruptOneGet injects one wrong get response (tests only).
	corruptOneGet bool
	// Simulation sizes.
	simPeers      int
	simKeys       int
	simChunk      time.Duration // virtual time per chunk
	simCountChunk int           // chunks whose counts are reported (exact per seed)
}

func defaultConfig() config {
	return config{
		seed:          1,
		seconds:       20,
		keys:          100_000,
		sampledKeys:   64,
		setupRounds:   3,
		warmup:        time.Second,
		window:        time.Second,
		probeScale:    1,
		simPeers:      64,
		simKeys:       4096,
		simChunk:      10 * time.Second,
		simCountChunk: 6,
	}
}

// smoke shrinks a config to about a second per workload.
func (c config) smoke() config {
	c.seconds = 2
	c.keys = 2000
	c.setupRounds = 1
	c.warmup = 200 * time.Millisecond
	c.window = 500 * time.Millisecond
	c.probeScale = 10
	c.fastBoot = true
	c.simPeers = 16
	c.simKeys = 256
	c.simChunk = 2 * time.Second
	c.simCountChunk = 2
	return c
}

// phaseSplit divides the measured seconds between the latency phase (one
// op in flight per coordinator) and the saturation phase (32 in flight).
func (c config) phaseSplit() (lat, sat time.Duration) {
	total := time.Duration(c.seconds * float64(time.Second))
	lat = (total * 2 / 5).Round(c.window)
	if lat < c.window {
		lat = c.window
	}
	sat = total - lat
	if sat < c.window {
		sat = c.window
	}
	return lat, sat
}

// metricDef names one metric. BENCHMARK.json carries the same lists and a
// test holds the two equal; bound is set for end-to-end metrics only.
type metricDef struct {
	name, unit, better string
	bound              float64
}

const (
	lower  = "lower"
	higher = "higher"
)

var endToEnd = []metricDef{
	{"setup_s", "s", lower, 0.25},
	{"ops_per_s", "1/s", higher, 0.25},
	{"cpu_us_per_op", "us", lower, 0.25},
	{"get_p50_us", "us", lower, 0.25},
	{"put_p50_us", "us", lower, 0.25},
	{"peak_rss_mb", "MB", lower, 0.25},
}

// perLayer lists every per-layer metric; a traced run reports all of them
// on every workload, 0 where the layer did no work (which is itself the
// bypass check: no wire bytes on loopback, no WAL appends in memory).
var perLayer = []metricDef{
	{"core.events_per_op", "count", lower, 0},
	{"core.steals_per_kop", "count", lower, 0},
	{"core.parks_per_kop", "count", lower, 0},
	{"core.max_deque_depth", "count", lower, 0},
	{"core.handler_us_per_op", "us", lower, 0},
	{"core.dispatch_ns", "ns", lower, 0},
	{"core.fanout64_us", "us", lower, 0},
	{"core.client_to_abd_us", "us", lower, 0},
	{"core.abd_to_client_us", "us", lower, 0},
	{"abd.handler_us_per_op", "us", lower, 0},
	{"network.handler_us_per_op", "us", lower, 0},
	{"router.handler_us_per_op", "us", lower, 0},
	{"timer.handler_us_per_op", "us", lower, 0},
	{"bg.handler_us_per_op", "us", lower, 0},
	{"bg.events_per_s", "1/s", lower, 0},
	{"loadgen.handler_us_per_op", "us", lower, 0},
	{"abd.batches_per_op", "count", lower, 0},
	{"abd.ops_per_batch", "count", higher, 0},
	{"abd.retries_per_kop", "count", lower, 0},
	{"abd.hedges_per_kop", "count", lower, 0},
	{"abd.sheds_per_kop", "count", lower, 0},
	{"abd.restarts_per_kop", "count", lower, 0},
	{"abd.op_us", "us", lower, 0},
	{"abd.route_us", "us", lower, 0},
	{"abd.read_phase_us", "us", lower, 0},
	{"abd.write_phase_us", "us", lower, 0},
	{"abd.read_to_serve_us", "us", lower, 0},
	{"abd.serve_to_ack_us", "us", lower, 0},
	{"abd.get_fastpath_frac", "frac", higher, 0},
	{"network.frames_per_op", "count", lower, 0},
	{"network.wire_bytes_per_op", "B", lower, 0},
	{"network.fallback_frac", "frac", lower, 0},
	{"network.dropped_full", "count", lower, 0},
	{"network.reconnects", "count", lower, 0},
	{"network.send_us", "us", lower, 0},
	{"network.roundtrip_ns_gob", "ns", lower, 0},
	{"network.roundtrip_ns_gobzlib", "ns", lower, 0},
	{"network.roundtrip_ns_binary", "ns", lower, 0},
	{"router.resolved_per_op", "count", lower, 0},
	{"router.unresolved", "count", lower, 0},
	{"router.lookup_us", "us", lower, 0},
	{"kvstore.reads_per_op", "count", lower, 0},
	{"kvstore.applies_per_op", "count", lower, 0},
	{"kvstore.rejected_per_op", "count", lower, 0},
	{"kvstore.wal_appends_per_put", "count", lower, 0},
	{"kvstore.wal_bytes_per_put", "B", lower, 0},
	{"kvstore.write_amp", "x", lower, 0},
	{"kvstore.appends_per_fsync", "count", higher, 0},
	{"kvstore.fsyncs_per_s", "1/s", lower, 0},
	{"kvstore.read_ns", "ns", lower, 0},
	{"kvstore.apply_ns", "ns", lower, 0},
	{"kvstore.apply_durable_us", "us", lower, 0},
	{"kvstore.replay_us_per_record", "us", lower, 0},
	{"kvstore.read_share_pct", "%", lower, 0},
	{"simulation.speedup_x", "x", higher, 0},
	{"simulation.events_per_s", "1/s", higher, 0},
	{"simulation.events_per_op", "count", lower, 0},
	{"simulation.msgs_per_op", "count", lower, 0},
	{"simulation.handler_execs", "count", lower, 0},
	{"simulation.virt_get_p50_ms", "ms", lower, 0},
	{"simulation.virt_put_p50_ms", "ms", lower, 0},
	{"go.allocs_per_op", "count", lower, 0},
	{"go.alloc_bytes_per_op", "B", lower, 0},
	{"go.gc_cycles", "count", lower, 0},
	{"go.gc_pause_ms", "ms", lower, 0},
	{"loadgen.samples_get", "count", higher, 0},
	{"loadgen.samples_put", "count", higher, 0},
	{"loadgen.get_p99_us", "us", lower, 0},
	{"loadgen.put_p99_us", "us", lower, 0},
	{"loadgen.sat_get_p99_us", "us", lower, 0},
	{"loadgen.max_gap_ms", "ms", lower, 0},
	{"loadgen.traced_ops", "count", higher, 0},
	{"loadgen.trace_overhead_pct", "%", lower, 0},
	{"loadgen.trace_spans_dropped", "count", lower, 0},
	{"loadgen.unattributed_us", "us", lower, 0},
}
