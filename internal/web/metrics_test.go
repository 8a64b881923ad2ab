package web

import (
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/network"
	"repro/internal/web/promtest"
)

func TestMetricsEndpoint(t *testing.T) {
	_, bridge := newWebWorld(t, &echoApp{}, 5*time.Second)

	// Generate some traffic through the component system first.
	for i := 0; i < 5; i++ {
		httpGet(t, "http://"+bridge.Addr()+"/warm")
	}

	resp, err := http.Get("http://" + bridge.Addr() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != PromContentType {
		t.Fatalf("content type %q, want %q", ct, PromContentType)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	body := string(raw)

	// Every required series family is present.
	for _, series := range []string{
		"cats_scheduler_executed_total",
		"cats_scheduler_workers",
		"cats_component_handled_total",
		"cats_component_queue_depth",
		"cats_component_handler_latency_seconds_count",
		"cats_routecache_plans",
		"cats_routecache_builds_total",
		"cats_routecache_resets_total",
		"cats_network_sent_total",
		"cats_network_reconnects_total",
		"cats_network_requeued_total",
		"cats_network_abandoned_total",
		"cats_network_traced_frames_total",
		"cats_network_codec_binary_encoded_total",
		`cats_network_peers{state="backoff"}`,
		"cats_runtime_components_live",
		"cats_tracing_spans_recorded_total",
		"cats_tracing_sample_every",
	} {
		if !strings.Contains(body, series) {
			t.Errorf("missing series %s", series)
		}
	}
	// The bridge itself shows up as a labeled component with handled events.
	if !strings.Contains(body, `cats_component_handled_total{component="`) {
		t.Fatalf("no labeled component series in:\n%s", body)
	}
	promtest.Check(t, body)
}

func TestDebugRuntimeJSON(t *testing.T) {
	_, bridge := newWebWorld(t, &echoApp{}, 5*time.Second)
	httpGet(t, "http://"+bridge.Addr()+"/warm")

	resp, err := http.Get("http://" + bridge.Addr() + "/debug/runtime")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("content type %q", ct)
	}
	var out struct {
		Runtime core.MetricsSnapshot `json:"runtime"`
		Network network.Metrics      `json:"network"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out.Runtime.LiveComponents < 2 {
		t.Fatalf("live components %d, want >= 2", out.Runtime.LiveComponents)
	}
	if len(out.Runtime.Components) == 0 {
		t.Fatal("no component stats in JSON snapshot")
	}
	if out.Runtime.Scheduler.Workers != 2 {
		t.Fatalf("workers %d, want 2", out.Runtime.Scheduler.Workers)
	}
}

func TestPprofGating(t *testing.T) {
	// Default bridge: pprof not mounted.
	_, bridge := newWebWorld(t, &echoApp{}, 5*time.Second)
	code, body := httpGet(t, "http://"+bridge.Addr()+"/debug/pprof/")
	// Falls through to the component app, which echoes the path.
	if code != 200 || !strings.Contains(body, "path=/debug/pprof/") {
		t.Fatalf("pprof path not routed to app: code=%d body=%q", code, body)
	}

	// Pprof-enabled bridge serves the index.
	rt := core.New(
		core.WithScheduler(core.NewWorkStealingScheduler(2)),
		core.WithFaultPolicy(core.LogAndContinue),
	)
	t.Cleanup(rt.Shutdown)
	pb := NewBridge(BridgeConfig{Listen: "127.0.0.1:0", Timeout: time.Second, EnablePprof: true})
	rt.MustBootstrap("Main", core.SetupFunc(func(ctx *core.Ctx) {
		appC := ctx.Create("app", &echoApp{})
		brC := ctx.Create("bridge", pb)
		ctx.Connect(appC.Provided(PortType), brC.Required(PortType))
	}))
	rt.WaitQuiescence(5 * time.Second)
	deadline := time.Now().Add(5 * time.Second)
	for pb.Addr() == "" && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	code, body = httpGet(t, "http://"+pb.Addr()+"/debug/pprof/")
	if code != 200 || !strings.Contains(body, "goroutine") {
		t.Fatalf("pprof index not served: code=%d", code)
	}
}

// TestMetricsWriterExposition pins the exact exposition output for a
// synthetic snapshot (golden test for the hand-rolled format writer).
func TestMetricsWriterExposition(t *testing.T) {
	var sb strings.Builder
	m := NewMetricsWriter(&sb)
	m.Header("demo_total", "counter", "A demo counter.")
	m.Counter("demo_total", 42)
	m.Counter("demo_total", 7, "component", `we"ird\pa`+"\n"+`th`)
	m.Gauge("demo_depth", 3.5, "worker", "0")
	if err := m.Err(); err != nil {
		t.Fatal(err)
	}
	want := "# HELP demo_total A demo counter.\n" +
		"# TYPE demo_total counter\n" +
		"demo_total 42\n" +
		`demo_total{component="we\"ird\\pa\nth"} 7` + "\n" +
		`demo_depth{worker="0"} 3.5` + "\n"
	if sb.String() != want {
		t.Fatalf("exposition mismatch:\ngot:\n%s\nwant:\n%s", sb.String(), want)
	}
}

func TestMetricsWriterHistogram(t *testing.T) {
	var ls core.LatencyStats
	ls.Samples = 3
	ls.SumNanos = 1500
	ls.Buckets[9] = 2  // two samples in [256, 512) ns
	ls.Buckets[10] = 1 // one sample in [512, 1024) ns

	var sb strings.Builder
	m := NewMetricsWriter(&sb)
	m.Histogram("lat_seconds", ls)
	if err := m.Err(); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, line := range []string{
		`lat_seconds_bucket{le="5.12e-07"} 2`,
		`lat_seconds_bucket{le="1.024e-06"} 3`,
		`lat_seconds_bucket{le="+Inf"} 3`,
		`lat_seconds_sum 1.5e-06`,
		`lat_seconds_count 3`,
	} {
		if !strings.Contains(out, line) {
			t.Errorf("missing line %q in:\n%s", line, out)
		}
	}
	// Cumulative counts never decrease.
	last := -1.0
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		if !strings.HasPrefix(line, "lat_seconds_bucket") {
			continue
		}
		var v float64
		if _, err := fmtSscanLast(line, &v); err != nil {
			t.Fatalf("parse %q: %v", line, err)
		}
		if v < last {
			t.Fatalf("bucket counts decreased at %q", line)
		}
		last = v
	}
}

// TestMetricsWriterHistogramOverflow: the last core bucket holds every
// sample from 2^31 ns up, so it has no finite bound — a 10 s sample is
// counted only under le="+Inf", never under the last finite bound.
func TestMetricsWriterHistogramOverflow(t *testing.T) {
	var ls core.LatencyStats
	ls.Samples = 1
	ls.SumNanos = uint64(10 * time.Second)
	ls.Buckets[core.LatencyBuckets-1] = 1

	var sb strings.Builder
	NewMetricsWriter(&sb).Histogram("x_seconds", ls)
	want := `x_seconds_bucket{le="+Inf"} 1` + "\n" +
		"x_seconds_sum 10\n" +
		"x_seconds_count 1\n"
	if sb.String() != want {
		t.Fatalf("overflow sample:\ngot:\n%s\nwant:\n%s", sb.String(), want)
	}
}

// TestRollupWriter pins the rollup sink's rule: every unlabeled counter and
// gauge sample under its family name; labeled samples and histograms —
// including a histogram written sample by sample — are skipped.
func TestRollupWriter(t *testing.T) {
	got := map[string]int64{}
	m := NewRollupWriter(got)
	m.Header("a_total", "counter", "A.")
	m.Counter("a_total", 42)
	m.Counter("a_total", 7, "component", "x")
	m.Header("depth", "gauge", "D.")
	m.Gauge("depth", 3)
	m.Gauge("depth", 9, "worker", "0")
	var ls core.LatencyStats
	ls.Samples, ls.Buckets[3] = 1, 1
	m.Header("lat_seconds", "histogram", "L.")
	m.Histogram("lat_seconds", ls)
	m.Header("size", "histogram", "S.")
	m.Counter("size_bucket", 1, "le", "+Inf")
	m.Counter("size_sum", 4)
	m.Counter("size_count", 1)
	if err := m.Err(); err != nil {
		t.Fatal(err)
	}
	want := map[string]int64{"a_total": 42, "depth": 3}
	if len(got) != len(want) || got["a_total"] != 42 || got["depth"] != 3 {
		t.Fatalf("rollup %v, want %v", got, want)
	}
}

// fmtSscanLast parses the trailing value of an exposition sample line.
func fmtSscanLast(line string, v *float64) (int, error) {
	fields := strings.Fields(line)
	return 1, json.Unmarshal([]byte(fields[len(fields)-1]), v)
}

// TestRegisteredMetricsSources checks the process-global source registry:
// sources render in name order, re-registering a name replaces it, and the
// /metrics handler picks registered sources up.
func TestRegisteredMetricsSources(t *testing.T) {
	RegisterMetricsSource("ztest-b", func(m *MetricsWriter) {
		m.Counter("ztest_b_total", 2)
	})
	RegisterMetricsSource("ztest-a", func(m *MetricsWriter) {
		m.Gauge("ztest_a", 1)
	})

	var b strings.Builder
	if err := WriteNodeMetrics(NewMetricsWriter(&b), core.MetricsSnapshot{}); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	ia, ib := strings.Index(out, "ztest_a 1"), strings.Index(out, "ztest_b_total 2")
	if ia < 0 || ib < 0 {
		t.Fatalf("registered sources missing from output:\n%s", out)
	}
	if ia > ib {
		t.Fatalf("sources not in name order:\n%s", out)
	}

	// Replacement: same name, new output.
	RegisterMetricsSource("ztest-a", func(m *MetricsWriter) {
		m.Gauge("ztest_a", 9)
	})
	b.Reset()
	if err := WriteNodeMetrics(NewMetricsWriter(&b), core.MetricsSnapshot{}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "ztest_a 9") || strings.Contains(b.String(), "ztest_a 1") {
		t.Fatalf("source replacement did not take:\n%s", b.String())
	}

	// The /metrics endpoint includes registered sources.
	_, bridge := newWebWorld(t, &echoApp{}, 5*time.Second)
	_, body := httpGet(t, "http://"+bridge.Addr()+"/metrics")
	if !strings.Contains(body, "ztest_a 9") {
		t.Fatalf("/metrics does not include registered sources:\n%s", body)
	}
}
