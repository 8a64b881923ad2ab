package main

import (
	"runtime"
	"strings"
	"time"

	"repro/internal/abd"
	"repro/internal/cats"
	"repro/internal/core"
	"repro/internal/kvstore"
	"repro/internal/network"
)

// counters is one reading of every public snapshot function the layers
// offer. Per-layer metrics are differences between two readings taken while
// the load generator is drained, divided by the operations completed in
// between.
type counters struct {
	snap                 core.MetricsSnapshot
	net                  network.Metrics
	kv                   kvstore.Metrics
	batch                abd.BatchMetrics
	res                  abd.ResilienceMetrics
	frames               uint64 // messages the transport carried between nodes
	restarts             uint64
	resolved, unresolved uint64
	mem                  runtime.MemStats
}

func takeCounters(rt *core.Runtime, nodes []*cats.Node, frames uint64) counters {
	c := counters{
		snap:   rt.MetricsSnapshot(),
		net:    network.GlobalMetrics(),
		kv:     kvstore.GlobalMetrics(),
		batch:  abd.GlobalBatchMetrics(),
		res:    abd.GlobalResilienceMetrics(),
		frames: frames,
	}
	for _, n := range nodes {
		_, _, restarts := n.ABD.EpochStats()
		c.restarts += restarts
		resolved, unresolved := n.Router.Stats()
		c.resolved += resolved
		c.unresolved += unresolved
	}
	runtime.ReadMemStats(&c.mem)
	return c
}

// clusterCounters reads the counters of a KV cluster. Frames are loopback
// deliveries or, over TCP, frames queued for sending.
func clusterCounters(cl *cluster) counters {
	nodes := make([]*cats.Node, len(cl.peers))
	for i, p := range cl.peers {
		nodes[i] = p.Node
	}
	frames := network.GlobalMetrics().Sent
	if cl.registry != nil {
		frames, _, _ = cl.registry.Stats()
	}
	return takeCounters(cl.rt, nodes, frames)
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// layerOf maps a component path to the layer whose handler time it counts
// toward: the last path element names the component's role.
func layerOf(path string) string {
	name := path[strings.LastIndexByte(path, '/')+1:]
	switch {
	case name == "abd":
		return "abd"
	case name == "net":
		return "network"
	case name == "router":
		return "router"
	case name == "timer":
		return "timer"
	case name == "fd", name == "cyclon", name == "ring", name == "handoff":
		return "bg"
	case strings.HasPrefix(name, "client-"), name == "simulator":
		return "loadgen"
	}
	return "other"
}

// layerMetrics fills the counter-derived per-layer metrics for the interval
// between two readings in which ops operations (puts of them writes of
// valueSize bytes) completed over wall time.
func layerMetrics(m map[string]float64, a, b counters, ops, puts uint64, valueSize int, wall time.Duration) {
	n := float64(ops)
	sa, sb := a.snap.Scheduler, b.snap.Scheduler
	m["core.events_per_op"] = ratio(float64(sb.Executed-sa.Executed), n)
	m["core.steals_per_kop"] = ratio(1000*float64(sb.Steals-sa.Steals), n)
	m["core.parks_per_kop"] = ratio(1000*float64(sb.Parks-sa.Parks), n)
	m["core.max_deque_depth"] = float64(sb.MaxDequeDepth)

	// Handler time per layer: events handled in the interval times the
	// mean of the handler-latency samples taken in the interval.
	prev := make(map[string]core.ComponentStats, len(a.snap.Components))
	for _, c := range a.snap.Components {
		prev[c.Path] = c
	}
	handlerUS := map[string]float64{}
	var bgEvents float64
	for _, c := range b.snap.Components {
		p := prev[c.Path]
		handled := float64(c.Handled - p.Handled)
		mean := ratio(float64(c.Latency.SumNanos-p.Latency.SumNanos), float64(c.Latency.Samples-p.Latency.Samples))
		layer := layerOf(c.Path)
		handlerUS[layer] += handled * mean / 1e3
		handlerUS["core"] += handled * mean / 1e3
		if layer == "bg" {
			bgEvents += handled
		}
	}
	for _, layer := range []string{"core", "abd", "network", "router", "timer", "bg", "loadgen"} {
		m[layer+".handler_us_per_op"] = ratio(handlerUS[layer], n)
	}
	m["bg.events_per_s"] = ratio(bgEvents, wall.Seconds())

	batches := float64(b.batch.Batches - a.batch.Batches)
	m["abd.batches_per_op"] = ratio(batches, n)
	m["abd.ops_per_batch"] = ratio(float64(b.batch.BatchedOps-a.batch.BatchedOps), batches)
	m["abd.retries_per_kop"] = ratio(1000*float64(b.res.Retries-a.res.Retries), n)
	m["abd.hedges_per_kop"] = ratio(1000*float64(b.res.Hedges-a.res.Hedges), n)
	m["abd.sheds_per_kop"] = ratio(1000*float64(b.res.Sheds-a.res.Sheds), n)
	m["abd.restarts_per_kop"] = ratio(1000*float64(b.restarts-a.restarts), n)

	m["network.frames_per_op"] = ratio(float64(b.frames-a.frames), n)
	m["network.wire_bytes_per_op"] = ratio(float64(b.net.EncodedBytes-a.net.EncodedBytes), n)
	m["network.fallback_frac"] = ratio(float64(b.net.CodecFallbacks-a.net.CodecFallbacks), float64(b.net.EncodedMsgs-a.net.EncodedMsgs))
	m["network.dropped_full"] = float64(b.net.DroppedFull - a.net.DroppedFull)
	m["network.reconnects"] = float64(b.net.Reconnects - a.net.Reconnects)

	m["router.resolved_per_op"] = ratio(float64(b.resolved-a.resolved), n)
	m["router.unresolved"] = float64(b.unresolved - a.unresolved)

	appends := float64(b.kv.WALAppends - a.kv.WALAppends)
	walBytes := float64(b.kv.WALBytes - a.kv.WALBytes)
	syncs := float64(b.kv.WALSyncs - a.kv.WALSyncs)
	m["kvstore.reads_per_op"] = ratio(float64(b.kv.Reads-a.kv.Reads), n)
	m["kvstore.applies_per_op"] = ratio(float64(b.kv.Applies-a.kv.Applies), n)
	m["kvstore.rejected_per_op"] = ratio(float64(b.kv.Rejected-a.kv.Rejected), n)
	m["kvstore.wal_appends_per_put"] = ratio(appends, float64(puts))
	m["kvstore.wal_bytes_per_put"] = ratio(walBytes, float64(puts))
	m["kvstore.write_amp"] = ratio(walBytes, float64(puts)*float64(valueSize))
	m["kvstore.appends_per_fsync"] = ratio(appends, syncs)
	m["kvstore.fsyncs_per_s"] = ratio(syncs, wall.Seconds())

	m["go.allocs_per_op"] = ratio(float64(b.mem.Mallocs-a.mem.Mallocs), n)
	m["go.alloc_bytes_per_op"] = ratio(float64(b.mem.TotalAlloc-a.mem.TotalAlloc), n)
	m["go.gc_cycles"] = float64(b.mem.NumGC - a.mem.NumGC)
	m["go.gc_pause_ms"] = float64(b.mem.PauseTotalNs-a.mem.PauseTotalNs) / 1e6
}

// loadgenMetrics reports what the load generator itself saw: sample counts
// behind the latency percentiles, the longest stall, and the percentiles
// that do not repeat well enough between runs to be end-to-end metrics.
func loadgenMetrics(m map[string]float64, lat, sat *phaseStats) {
	getP99, gets := windowQuantile(lat.lat[kindGet], 0.99)
	putP99, puts := windowQuantile(lat.lat[kindPut], 0.99)
	satGetP99, _ := windowQuantile(sat.lat[kindGet], 0.99)
	m["loadgen.samples_get"] = float64(gets)
	m["loadgen.samples_put"] = float64(puts)
	m["loadgen.get_p99_us"] = getP99 / 1e3
	m["loadgen.put_p99_us"] = putP99 / 1e3
	m["loadgen.sat_get_p99_us"] = satGetP99 / 1e3
	m["loadgen.max_gap_ms"] = float64(sat.maxGap) / 1e6
}
