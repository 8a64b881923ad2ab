// Prometheus text exposition (format 0.0.4) of a node's metrics: the
// runtime telemetry snapshot, the process-wide network and span-ring
// counters, and the sources other packages register. Hand-rolled rather
// than depending on a client library: the format is a few lines of
// escaping rules, and the repo's dependency budget is the standard library.
package web

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"

	"repro/internal/core"
	"repro/internal/network"
	"repro/internal/tracing"
)

// PromContentType is the Content-Type of the Prometheus text exposition
// format version 0.0.4.
const PromContentType = "text/plain; version=0.0.4; charset=utf-8"

// MetricsWriter emits metric families to one of two sinks. The text sink
// writes the Prometheus text exposition format: a HELP/TYPE header per
// family followed by one sample line per (name, label set), label values
// escaped per the format spec. The rollup sink is the monitor's view of the
// same families: it keeps every unlabeled sample of a counter or gauge
// family under the family name and skips labeled samples and histograms —
// the full breakdown stays on the node's own /metrics endpoint.
type MetricsWriter struct {
	w      io.Writer
	rollup map[string]int64
	typ    string // TYPE of the family being written (rollup sink)
	err    error
}

// NewMetricsWriter wraps w for exposition output.
func NewMetricsWriter(w io.Writer) *MetricsWriter { return &MetricsWriter{w: w} }

// NewRollupWriter returns a writer that stores the unlabeled counter and
// gauge samples it is given into rollup.
func NewRollupWriter(rollup map[string]int64) *MetricsWriter {
	return &MetricsWriter{rollup: rollup}
}

// Err returns the first write error, if any.
func (m *MetricsWriter) Err() error { return m.err }

func (m *MetricsWriter) printf(format string, args ...any) {
	if m.err != nil {
		return
	}
	_, m.err = fmt.Fprintf(m.w, format, args...)
}

// Header writes the HELP and TYPE lines for a metric family. typ is
// "counter", "gauge", or "histogram".
func (m *MetricsWriter) Header(name, typ, help string) {
	if m.rollup != nil {
		m.typ = typ
		return
	}
	m.printf("# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
}

// keep stores an unlabeled counter or gauge sample in the rollup sink and
// reports whether the writer has one.
func (m *MetricsWriter) keep(name string, value int64, kv []string) bool {
	if m.rollup == nil {
		return false
	}
	if len(kv) == 0 && m.typ != "histogram" {
		m.rollup[name] = value
	}
	return true
}

// escapeLabel escapes a label value per the exposition format: backslash,
// double-quote, and newline.
func escapeLabel(v string) string {
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}

// formatLabels renders {k="v",...} from alternating key/value pairs; empty
// input renders nothing.
func formatLabels(kv []string) string {
	if len(kv) == 0 {
		return ""
	}
	var sb strings.Builder
	sb.WriteByte('{')
	for i := 0; i+1 < len(kv); i += 2 {
		if i > 0 {
			sb.WriteByte(',')
		}
		fmt.Fprintf(&sb, `%s="%s"`, kv[i], escapeLabel(kv[i+1]))
	}
	sb.WriteByte('}')
	return sb.String()
}

// Counter writes one counter sample. kv is alternating label key/value pairs.
func (m *MetricsWriter) Counter(name string, value uint64, kv ...string) {
	if m.keep(name, int64(value), kv) {
		return
	}
	m.printf("%s%s %d\n", name, formatLabels(kv), value)
}

// Gauge writes one gauge sample. The rollup sink truncates the value to an
// integer; every unlabeled gauge a node exposes is integer-valued.
func (m *MetricsWriter) Gauge(name string, value float64, kv ...string) {
	if m.keep(name, int64(value), kv) {
		return
	}
	m.printf("%s%s %g\n", name, formatLabels(kv), value)
}

// Histogram writes a full Prometheus histogram from the core power-of-two
// latency stats: cumulative `le` buckets in seconds, then _sum and _count.
// The last core bucket has no finite upper bound (it absorbs every sample
// past the one before it), so its samples appear only under le="+Inf".
func (m *MetricsWriter) Histogram(name string, ls core.LatencyStats, kv ...string) {
	if m.rollup != nil {
		return
	}
	var cum uint64
	for i := 0; i < core.LatencyBuckets-1; i++ {
		cum += ls.Buckets[i]
		if ls.Buckets[i] == 0 {
			continue // sparse output: skip empty buckets
		}
		le := float64(core.BucketBoundNS(i)) / 1e9
		lkv := append(append([]string{}, kv...), "le", fmt.Sprintf("%g", le))
		m.printf("%s_bucket%s %d\n", name, formatLabels(lkv), cum)
	}
	inf := append(append([]string{}, kv...), "le", "+Inf")
	m.printf("%s_bucket%s %d\n", name, formatLabels(inf), ls.Samples)
	m.printf("%s_sum%s %g\n", name, formatLabels(kv), float64(ls.SumNanos)/1e9)
	m.printf("%s_count%s %d\n", name, formatLabels(kv), ls.Samples)
}

// Process-global metric sources: packages with process-wide counters (the
// pattern internal/network started) register an exposition callback here —
// usually from init() — and every /metrics scrape appends them. The
// registry keeps web free of imports on those packages.
var (
	sourceMu sync.Mutex
	sources  map[string]func(*MetricsWriter)
)

// RegisterMetricsSource installs (or replaces) a named exposition source.
func RegisterMetricsSource(name string, fn func(*MetricsWriter)) {
	sourceMu.Lock()
	defer sourceMu.Unlock()
	if sources == nil {
		sources = make(map[string]func(*MetricsWriter))
	}
	sources[name] = fn
}

// WriteNodeMetrics renders everything a node exposes — the runtime
// snapshot, the process-wide network and span-ring counters, and every
// registered source — into m. The web bridge serves it as /metrics through
// the text sink; the monitor's RuntimeStatus reports it through the rollup
// sink.
func WriteNodeMetrics(m *MetricsWriter, s core.MetricsSnapshot) error {
	writeRuntimeMetrics(m, s)
	writeNetworkMetrics(m, network.GlobalMetrics())
	writeTracingMetrics(m)
	writeRegisteredMetrics(m)
	return m.Err()
}

// writeTracingMetrics renders the process span ring's counters. The tracing
// package is dependency-free by design, so web renders them on its behalf.
func writeTracingMetrics(m *MetricsWriter) {
	recorded, _ := tracing.Stats()
	m.Header("cats_tracing_spans_recorded_total", "counter", "Spans recorded into the process span ring.")
	m.Counter("cats_tracing_spans_recorded_total", recorded)
	m.Header("cats_tracing_sample_every", "gauge", "Trace sampling period (0 = tracing disabled).")
	m.Gauge("cats_tracing_sample_every", float64(tracing.SampleEvery()))
}

// writeRegisteredMetrics renders every registered source, in name order so
// scrapes are deterministic.
func writeRegisteredMetrics(m *MetricsWriter) {
	sourceMu.Lock()
	names := make([]string, 0, len(sources))
	for n := range sources {
		names = append(names, n)
	}
	fns := make([]func(*MetricsWriter), 0, len(names))
	sort.Strings(names)
	for _, n := range names {
		fns = append(fns, sources[n])
	}
	sourceMu.Unlock()
	for _, fn := range fns {
		fn(m)
	}
}

// writeRuntimeMetrics renders a core telemetry snapshot as the
// cats_runtime_*, cats_scheduler_*, cats_component_*, cats_routecache_*,
// and cats_trace_* series.
func writeRuntimeMetrics(m *MetricsWriter, s core.MetricsSnapshot) {
	m.Header("cats_runtime_components_live", "gauge", "Components currently alive.")
	m.Gauge("cats_runtime_components_live", float64(s.LiveComponents))
	m.Header("cats_runtime_components_total", "counter", "Components ever created.")
	m.Counter("cats_runtime_components_total", uint64(s.TotalComponents))
	m.Header("cats_runtime_faults_total", "counter", "Handler panics recovered runtime-wide.")
	m.Counter("cats_runtime_faults_total", s.Faults)

	m.Header("cats_scheduler_workers", "gauge", "Scheduler worker goroutines.")
	m.Gauge("cats_scheduler_workers", float64(s.Scheduler.Workers))
	m.Header("cats_scheduler_executed_total", "counter", "Component events executed.")
	m.Counter("cats_scheduler_executed_total", s.Scheduler.Executed)
	m.Header("cats_scheduler_local_pops_total", "counter", "Ready components consumed from the worker's own deque.")
	m.Counter("cats_scheduler_local_pops_total", s.Scheduler.LocalPops)
	m.Header("cats_scheduler_steals_total", "counter", "Successful batch steals.")
	m.Counter("cats_scheduler_steals_total", s.Scheduler.Steals)
	m.Header("cats_scheduler_stolen_total", "counter", "Components claimed by steals.")
	m.Counter("cats_scheduler_stolen_total", s.Scheduler.Stolen)
	m.Header("cats_scheduler_parks_total", "counter", "Times a worker parked for lack of work.")
	m.Counter("cats_scheduler_parks_total", s.Scheduler.Parks)
	m.Header("cats_scheduler_max_deque_depth", "gauge", "High-water mark of any worker deque.")
	m.Gauge("cats_scheduler_max_deque_depth", float64(s.Scheduler.MaxDequeDepth))
	if len(s.Scheduler.PerWorker) > 1 {
		m.Header("cats_scheduler_worker_executed_total", "counter", "Events executed per worker.")
		for _, w := range s.Scheduler.PerWorker {
			m.Counter("cats_scheduler_worker_executed_total", w.Executed, "worker", fmt.Sprint(w.ID))
		}
	}

	m.Header("cats_routecache_tables", "gauge", "Published copy-on-write route tables.")
	m.Gauge("cats_routecache_tables", float64(s.RouteCache.Tables))
	m.Header("cats_routecache_plans", "gauge", "Cached delivery plans across all route tables.")
	m.Gauge("cats_routecache_plans", float64(s.RouteCache.Plans))
	m.Header("cats_routecache_builds_total", "counter", "Route-plan constructions (cache misses).")
	m.Counter("cats_routecache_builds_total", s.RouteCache.Builds)
	m.Header("cats_routecache_resets_total", "counter", "Route-table resets forced by the capacity cap.")
	m.Counter("cats_routecache_resets_total", s.RouteCache.Resets)

	m.Header("cats_component_handled_total", "counter", "Events handled per component.")
	for _, c := range s.Components {
		m.Counter("cats_component_handled_total", c.Handled, "component", c.Path)
	}
	m.Header("cats_component_triggers_total", "counter", "Events triggered per component.")
	for _, c := range s.Components {
		m.Counter("cats_component_triggers_total", c.Triggers, "component", c.Path)
	}
	m.Header("cats_component_faults_total", "counter", "Handler panics per component.")
	for _, c := range s.Components {
		if c.Faults > 0 {
			m.Counter("cats_component_faults_total", c.Faults, "component", c.Path)
		}
	}
	m.Header("cats_component_queue_depth", "gauge", "Queued events per component.")
	for _, c := range s.Components {
		m.Gauge("cats_component_queue_depth", float64(c.QueueDepth), "component", c.Path)
	}

	// Handler latency aggregated across components: per-component histograms
	// would multiply cardinality by 34 buckets each.
	var agg core.LatencyStats
	for _, c := range s.Components {
		agg.Samples += c.Latency.Samples
		agg.SumNanos += c.Latency.SumNanos
		for i := range agg.Buckets {
			agg.Buckets[i] += c.Latency.Buckets[i]
		}
	}
	m.Header("cats_component_handler_latency_seconds", "histogram",
		"Sampled handler execution latency, all components.")
	m.Histogram("cats_component_handler_latency_seconds", agg)
}

// writeNetworkMetrics renders the process-wide network counters as the
// cats_network_* series.
func writeNetworkMetrics(m *MetricsWriter, n network.Metrics) {
	m.Header("cats_network_sent_total", "counter", "Messages enqueued for transmission.")
	m.Counter("cats_network_sent_total", n.Sent)
	m.Header("cats_network_dropped_full_total", "counter", "Messages dropped on full send queues.")
	m.Counter("cats_network_dropped_full_total", n.DroppedFull)
	m.Header("cats_network_encoded_msgs_total", "counter", "Messages serialized by the codec.")
	m.Counter("cats_network_encoded_msgs_total", n.EncodedMsgs)
	m.Header("cats_network_encoded_bytes_total", "counter", "Payload bytes produced by the codec.")
	m.Counter("cats_network_encoded_bytes_total", n.EncodedBytes)
	m.Header("cats_network_reconnects_total", "counter", "Successful redials of a peer after a failure.")
	m.Counter("cats_network_reconnects_total", n.Reconnects)
	m.Header("cats_network_requeued_total", "counter", "Frames carried across a broken write for redelivery.")
	m.Counter("cats_network_requeued_total", n.Requeued)
	m.Header("cats_network_abandoned_total", "counter", "Queued frames dropped when a peer's retry budget ran out.")
	m.Counter("cats_network_abandoned_total", n.Abandoned)
	m.Header("cats_network_traced_frames_total", "counter", "Encoded messages carrying a sampled trace context.")
	m.Counter("cats_network_traced_frames_total", n.TracedFrames)
	m.Header("cats_network_codec_binary_encoded_total", "counter", "Frames encoded in the binary wire format.")
	m.Counter("cats_network_codec_binary_encoded_total", n.BinaryEncoded)
	m.Header("cats_network_codec_binary_decoded_total", "counter", "Frames decoded from the binary wire format.")
	m.Counter("cats_network_codec_binary_decoded_total", n.BinaryDecoded)
	m.Header("cats_network_codec_fallbacks_total", "counter", "Messages outside the binary wire set encoded via gob fallback.")
	m.Counter("cats_network_codec_fallbacks_total", n.CodecFallbacks)
	m.Header("cats_network_peers", "gauge", "Outbound peer connections by circuit-breaker state.")
	m.Gauge("cats_network_peers", float64(n.PeersConnecting), "state", "connecting")
	m.Gauge("cats_network_peers", float64(n.PeersUp), "state", "up")
	m.Gauge("cats_network_peers", float64(n.PeersBackoff), "state", "backoff")
	m.Gauge("cats_network_peers", float64(n.PeersDown), "state", "down")
}
