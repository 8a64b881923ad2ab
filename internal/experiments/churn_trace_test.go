package experiments

import (
	"strings"
	"testing"

	"repro/internal/tracing"
)

// TestChurnTraceAcceptance pins the tracing acceptance criterion for the
// chaos scenario: an operation that crosses an epoch restart (and the
// handoff window behind it, which at this seed moves keys) must assemble
// into ONE timeline carrying spans from at least two nodes with intact
// parent and restart links, and the whole trace set must replay
// identically from the seed.
func TestChurnTraceAcceptance(t *testing.T) {
	a := Churn(3, ChurnConfig{})
	b := Churn(3, ChurnConfig{})
	if a.TraceDigest == 0 || a.TraceDigest != b.TraceDigest {
		t.Fatalf("trace digest not deterministic: %016x vs %016x", a.TraceDigest, b.TraceDigest)
	}
	if a.TraceSpans == 0 || a.TraceTimelines == 0 {
		t.Fatalf("chaos run recorded no spans (spans=%d timelines=%d)", a.TraceSpans, a.TraceTimelines)
	}
	if a.CrossNodeTraces == 0 {
		t.Fatalf("no timeline joined spans from >= 2 nodes out of %d", a.TraceTimelines)
	}
	if a.RestartTraces == 0 {
		t.Fatalf("no timeline crossed an epoch restart out of %d — chaos stopped exercising restarts", a.TraceTimelines)
	}
	if a.HandoffKeys == 0 {
		t.Fatalf("handoff moved no keys across %d sync rounds", a.HandoffTransfers)
	}

	// A clean run must not implicate anything.
	if v := a.ViolationTimelines(); len(v) != 0 {
		t.Fatalf("clean run cited %d violation timelines", len(v))
	}

	// Find a completed client op (not a handoff round) that restarted
	// across epochs AND touched >= 2 nodes, then check its structural
	// integrity. Only completed ("ok") ops are held to full link
	// integrity: an op cut off mid-flight by a crash can legitimately
	// leave dangling children.
	var hit *tracing.Timeline
	for i := range a.Timelines {
		tl := &a.Timelines[i]
		if (tl.Name == "put" || tl.Name == "get") &&
			tl.Restarts >= 1 && len(tl.Nodes) >= 2 && tl.Outcome == "ok" {
			hit = tl
			break
		}
	}
	if hit == nil {
		t.Fatalf("no completed cross-node timeline with an epoch restart (timelines=%d restart=%d crossnode=%d)",
			a.TraceTimelines, a.RestartTraces, a.CrossNodeTraces)
	}
	checkTimelineIntegrity(t, *hit)
	t.Logf("acceptance timeline: trace=%s %s key=%s restarts=%d nodes=%v spans=%d",
		hit.TraceHex, hit.Name, hit.Key, hit.Restarts, hit.Nodes, len(hit.Spans))
}

// TestTraceIDsDistinctPerComponent: each node's ABD coordinator and
// handoff component mint IDs from their own sources, so no assembled op
// timeline holds a handoff span, and no timeline holds two spans with one
// ID. With one source per node address, a handoff round and an op minted
// the same trace ID and assembled as one timeline.
func TestTraceIDsDistinctPerComponent(t *testing.T) {
	r := Churn(3, ChurnConfig{})
	ops, rounds := 0, 0
	for _, tl := range r.Timelines {
		ids := make(map[uint64]bool, len(tl.Spans))
		op, handoffSpan := false, ""
		for _, s := range tl.Spans {
			if ids[s.ID] {
				t.Errorf("timeline %s (%s) holds two spans with ID %016x", tl.TraceHex, tl.Name, s.ID)
			}
			ids[s.ID] = true
			switch {
			case s.Name == "get" || s.Name == "put" || s.Name == "attempt":
				op = true
			case strings.HasPrefix(s.Name, "handoff."):
				handoffSpan = s.Name
			}
		}
		if op && handoffSpan != "" {
			t.Errorf("op timeline %s (%s key=%q) holds a %s span", tl.TraceHex, tl.Name, tl.Key, handoffSpan)
		}
		if op {
			ops++
		}
		if tl.Name == "handoff.round" {
			rounds++
		}
	}
	if ops == 0 || rounds == 0 {
		t.Fatalf("chaos run assembled %d op and %d handoff-round timelines, want both", ops, rounds)
	}
}

// checkTimelineIntegrity verifies one assembled timeline's span tree:
// exactly one root, every parent and restart link resolves inside the
// timeline, restart links point at earlier sibling attempts, and span
// starts never precede their parent's start (monotone phase ordering).
func checkTimelineIntegrity(t *testing.T, tl tracing.Timeline) {
	t.Helper()
	byID := make(map[uint64]tracing.Span, len(tl.Spans))
	roots := 0
	for _, s := range tl.Spans {
		if s.Trace != tl.Trace {
			t.Errorf("span %016x from foreign trace %016x", s.ID, s.Trace)
		}
		byID[s.ID] = s
		if s.Parent == 0 {
			roots++
		}
	}
	if roots != 1 {
		t.Errorf("timeline %s has %d roots, want exactly 1", tl.TraceHex, roots)
	}
	for _, s := range tl.Spans {
		if s.Parent != 0 {
			p, ok := byID[s.Parent]
			if !ok {
				t.Errorf("span %016x (%s) has dangling parent %016x", s.ID, s.Name, s.Parent)
				continue
			}
			if s.Start.Before(p.Start) {
				t.Errorf("span %016x (%s) starts before its parent %s", s.ID, s.Name, p.Name)
			}
		}
		if s.Link != 0 {
			prev, ok := byID[s.Link]
			if !ok {
				t.Errorf("span %016x (%s) has dangling restart link %016x", s.ID, s.Name, s.Link)
				continue
			}
			if prev.Name != s.Name {
				t.Errorf("restart link crosses span kinds: %s -> %s", s.Name, prev.Name)
			}
			if s.Start.Before(prev.Start) {
				t.Errorf("restarted %s starts before the attempt it supersedes", s.Name)
			}
		}
	}
}
