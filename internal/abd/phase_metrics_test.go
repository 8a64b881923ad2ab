package abd

import (
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/web"
	"repro/internal/web/promtest"
)

// TestPhaseMetricsExposition is the golden exposition test for the
// tracing-fed metric families: cats_abd_phase_seconds{phase,outcome}
// histograms and the cats_abd_phase_exemplar trace-ID gauges must render
// in valid Prometheus 0.0.4 text form with cumulative buckets. Cells are
// process-global, so the test asserts containment of the lines it feeds,
// not an exact transcript.
func TestPhaseMetricsExposition(t *testing.T) {
	const trace = uint64(0x00000000000ae0ff)
	observePhase(phaseRead, outcomeOK, 3*time.Millisecond, trace)
	observePhase(phaseRead, outcomeOK, 5*time.Millisecond, trace)
	observePhase(phaseWrite, outcomeRestart, 9*time.Millisecond, trace+1)

	var b strings.Builder
	writePhaseMetrics(web.NewMetricsWriter(&b))
	out := b.String()

	for _, want := range []string{
		"# TYPE cats_abd_phase_seconds histogram\n",
		`cats_abd_phase_seconds_bucket{phase="read",outcome="ok",le="+Inf"}`,
		`cats_abd_phase_seconds_count{phase="read",outcome="ok"}`,
		`cats_abd_phase_seconds_sum{phase="read",outcome="ok"}`,
		`cats_abd_phase_seconds_count{phase="write",outcome="restart"}`,
		"# TYPE cats_abd_phase_exemplar gauge\n",
		`cats_abd_phase_exemplar{phase="read",outcome="ok",trace_id="00000000000ae0ff"} 1`,
		`cats_abd_phase_exemplar{phase="write",outcome="restart",trace_id="00000000000ae100"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}

	// The node's full exposition (what /metrics serves) carries the same
	// families through the "abd" source, well-formed: cumulative buckets,
	// +Inf equal to _count.
	var full strings.Builder
	if err := web.WriteNodeMetrics(web.NewMetricsWriter(&full), core.MetricsSnapshot{}); err != nil {
		t.Fatalf("WriteNodeMetrics: %v", err)
	}
	promtest.Check(t, full.String())
	for _, want := range []string{"cats_abd_phase_seconds_bucket", "cats_abd_phase_exemplar"} {
		if !strings.Contains(full.String(), want) {
			t.Fatalf("/metrics exposition missing %s", want)
		}
	}
}
