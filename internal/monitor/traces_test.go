package monitor

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"
	"time"

	"repro/internal/tracing"
	"repro/internal/web"
)

// traceServer serves a fixed span ring dump at /debug/trace, the way a
// node's web bridge does.
func traceServer(t *testing.T, spans []tracing.Span) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/debug/trace" {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(web.TraceDump{SampleEvery: 64, Recorded: uint64(len(spans)), Spans: spans})
	}))
	t.Cleanup(srv.Close)
	return srv
}

func at(ms int) time.Time { return time.Unix(0, int64(ms)*int64(time.Millisecond)) }

// TestTraceCollectorJoinsAcrossNodes pins the federate-style join: each
// node holds only its own slice of a trace, and the collector's merged
// span set assembles into one timeline spanning both nodes, with
// unreachable nodes reported rather than silently skipped.
func TestTraceCollectorJoinsAcrossNodes(t *testing.T) {
	const trace = 0x7777
	coord := traceServer(t, []tracing.Span{
		{Trace: trace, ID: 1, Node: "a:1", Name: "put", Key: "k", Outcome: "ok", Start: at(0), End: at(10)},
		{Trace: trace, ID: 2, Parent: 1, Node: "a:1", Name: "attempt", Start: at(0), End: at(10)},
	})
	replica := traceServer(t, []tracing.Span{
		{Trace: trace, ID: 9, Parent: 2, Node: "b:1", Name: "serve.write", Outcome: "ok", Start: at(4), End: at(4)},
	})

	targets := map[string]string{
		"a": strings.TrimPrefix(coord.URL, "http://"),
		"b": strings.TrimPrefix(replica.URL, "http://"),
		"c": "127.0.0.1:1", // nothing listens
	}
	spans, errs := collectSpans(targets)
	if len(spans) != 3 {
		t.Fatalf("collected %d spans, want 3", len(spans))
	}
	if len(errs) != 1 || errs["c"] == "" {
		t.Fatalf("scrape errors = %v, want exactly node c", errs)
	}

	tls := tracing.Assemble(spans)
	if len(tls) != 1 || tls[0].Trace != trace {
		t.Fatalf("assembled %+v, want one timeline for %x", tls, trace)
	}
	if len(tls[0].Nodes) != 2 || tls[0].Nodes[0] != "a:1" || tls[0].Nodes[1] != "b:1" {
		t.Fatalf("timeline nodes = %v, want [a:1 b:1]", tls[0].Nodes)
	}
	if tls[0].Name != "put" || tls[0].Outcome != "ok" {
		t.Fatalf("root identity lost: %+v", tls[0])
	}
}

// filterFixture builds three assembled timelines: a fast clean get, a
// slow put that crossed an epoch restart, and a handoff round.
func filterFixture() []tracing.Timeline {
	return tracing.Assemble([]tracing.Span{
		{Trace: 0x1, ID: 1, Node: "a", Name: "get", Outcome: "ok", Start: at(0), End: at(2)},
		{Trace: 0x1, ID: 2, Parent: 1, Node: "a", Name: "read", Outcome: "ok", Start: at(0), End: at(2)},

		{Trace: 0x2, ID: 1, Node: "a", Name: "put", Outcome: "ok", Start: at(1), End: at(50)},
		{Trace: 0x2, ID: 3, Parent: 1, Link: 2, Node: "a", Name: "attempt", Start: at(20), End: at(50)},
		{Trace: 0x2, ID: 4, Parent: 3, Node: "a", Name: "write", Outcome: "ok", Start: at(30), End: at(50)},

		{Trace: 0x3, ID: 1, Node: "b", Name: "handoff.round", Outcome: "ok", Start: at(2), End: at(20)},
	})
}

func TestFilterTimelinesSlowest(t *testing.T) {
	tls, err := FilterTimelines(filterFixture(), url.Values{"slowest": {"2"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(tls) != 2 || tls[0].Trace != 0x2 || tls[1].Trace != 0x3 {
		t.Fatalf("slowest-2 = %+v, want traces [2 3]", tls)
	}
}

func TestFilterTimelinesByPhaseAndRestarts(t *testing.T) {
	tls, err := FilterTimelines(filterFixture(), url.Values{"phase": {"write"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(tls) != 1 || tls[0].Trace != 0x2 {
		t.Fatalf("phase=write = %+v, want only trace 2", tls)
	}

	tls, err = FilterTimelines(filterFixture(), url.Values{"restarts": {"1"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(tls) != 1 || tls[0].Trace != 0x2 || tls[0].Restarts != 1 {
		t.Fatalf("restarts>=1 = %+v, want only the restarted put", tls)
	}
}

func TestFilterTimelinesByID(t *testing.T) {
	tls, err := FilterTimelines(filterFixture(), url.Values{"id": {tracing.FormatID(0x3)}})
	if err != nil {
		t.Fatal(err)
	}
	if len(tls) != 1 || tls[0].Trace != 0x3 {
		t.Fatalf("id filter = %+v, want only trace 3", tls)
	}
	if _, err := FilterTimelines(filterFixture(), url.Values{"id": {"not-hex"}}); err == nil {
		t.Fatal("bad id accepted")
	}
	if _, err := FilterTimelines(filterFixture(), url.Values{"slowest": {"0"}}); err == nil {
		t.Fatal("bad slowest accepted")
	}
}

func TestFilterTimelinesLimit(t *testing.T) {
	tls, err := FilterTimelines(filterFixture(), url.Values{"limit": {"1"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(tls) != 1 || tls[0].Trace != 0x1 {
		t.Fatalf("limit=1 = %+v, want the earliest timeline only", tls)
	}
}
