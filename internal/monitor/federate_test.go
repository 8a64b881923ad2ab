package monitor

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/web"
	"repro/internal/web/promtest"
)

func TestInjectNodeLabel(t *testing.T) {
	in := "# HELP cats_demo A demo counter\n" +
		"# TYPE cats_demo counter\n" +
		"cats_demo 42\n" +
		"cats_labeled{worker=\"3\"} 7\n" +
		"\n"
	got := InjectNodeLabel(in, "node-1")
	want := "# HELP cats_demo A demo counter\n" +
		"# TYPE cats_demo counter\n" +
		"cats_demo{node=\"node-1\"} 42\n" +
		"cats_labeled{node=\"node-1\",worker=\"3\"} 7\n"
	if got != want {
		t.Fatalf("labeled exposition mismatch:\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// TestFederatorScrape runs two fake node /metrics endpoints plus one dead
// target and checks the merged output: every live sample node-labeled,
// nodes sorted, the dead node reported as a comment.
func TestFederatorScrape(t *testing.T) {
	mkSrv := func(body string) *httptest.Server {
		return httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path != "/metrics" {
				http.NotFound(w, r)
				return
			}
			w.Write([]byte(body))
		}))
	}
	s1 := mkSrv("cats_group_epoch 5\n")
	defer s1.Close()
	s2 := mkSrv("cats_handoff_keys_total{dir=\"in\"} 9\n")
	defer s2.Close()

	out := federate(map[string]string{
		"node-b": strings.TrimPrefix(s2.URL, "http://"),
		"node-a": strings.TrimPrefix(s1.URL, "http://"),
		"node-c": "127.0.0.1:1", // nothing listens here
	})

	if !strings.HasPrefix(out, "# CATS federation: 3 nodes\n") {
		t.Fatalf("missing federation header:\n%s", out)
	}
	for _, want := range []string{
		"cats_group_epoch{node=\"node-a\"} 5\n",
		"cats_handoff_keys_total{node=\"node-b\",dir=\"in\"} 9\n",
		"# node node-c: scrape failed:",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("federated output missing %q:\n%s", want, out)
		}
	}
	// node-a's samples come before node-b's (sorted merge).
	if strings.Index(out, "node-a") > strings.Index(out, `node="node-b"`) {
		t.Fatalf("nodes not sorted:\n%s", out)
	}
}

// TestFederatorMergesFamilies scrapes two nodes exposing the same families
// — a counter and a histogram — and checks the merge is one well-formed
// exposition: each family's HELP/TYPE once, then both nodes' samples.
func TestFederatorMergesFamilies(t *testing.T) {
	body := "# HELP cats_x_total X.\n" +
		"# TYPE cats_x_total counter\n" +
		"cats_x_total 3\n" +
		"# HELP cats_h_seconds H.\n" +
		"# TYPE cats_h_seconds histogram\n" +
		"cats_h_seconds_bucket{le=\"0.5\"} 1\n" +
		"cats_h_seconds_bucket{le=\"+Inf\"} 2\n" +
		"cats_h_seconds_sum 1.5\n" +
		"cats_h_seconds_count 2\n"
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte(body))
	}))
	defer srv.Close()
	host := strings.TrimPrefix(srv.URL, "http://")

	out := federate(map[string]string{"node-a": host, "node-b": host})
	promtest.Check(t, out)
	want := "# CATS federation: 2 nodes\n" +
		"# HELP cats_x_total X.\n" +
		"# TYPE cats_x_total counter\n" +
		"cats_x_total{node=\"node-a\"} 3\n" +
		"cats_x_total{node=\"node-b\"} 3\n" +
		"# HELP cats_h_seconds H.\n" +
		"# TYPE cats_h_seconds histogram\n" +
		"cats_h_seconds_bucket{node=\"node-a\",le=\"0.5\"} 1\n" +
		"cats_h_seconds_bucket{node=\"node-a\",le=\"+Inf\"} 2\n" +
		"cats_h_seconds_sum{node=\"node-a\"} 1.5\n" +
		"cats_h_seconds_count{node=\"node-a\"} 2\n" +
		"cats_h_seconds_bucket{node=\"node-b\",le=\"0.5\"} 1\n" +
		"cats_h_seconds_bucket{node=\"node-b\",le=\"+Inf\"} 2\n" +
		"cats_h_seconds_sum{node=\"node-b\"} 1.5\n" +
		"cats_h_seconds_count{node=\"node-b\"} 2\n"
	if out != want {
		t.Fatalf("merged exposition:\ngot:\n%s\nwant:\n%s", out, want)
	}
}

// TestFederateEndpointEmpty drives the component-level /federate path with
// no advertised metrics URLs: still a valid exposition, zero nodes.
func TestFederateEndpointEmpty(t *testing.T) {
	sim, _, srv := newMonitorWorld(t)
	sim.Run(3 * time.Second)
	srv.ctx.Trigger(web.Request{ReqID: 1, Path: "/federate"}, srv.webOuter)
	sim.Run(10 * time.Millisecond)
	if len(srv.pages) != 1 {
		t.Fatalf("responses: %d", len(srv.pages))
	}
	p := srv.pages[0]
	if p.Status != 200 || !strings.HasPrefix(p.Body, "# CATS federation: 0 nodes\n") {
		t.Fatalf("federate response: %+v", p)
	}
	if !strings.Contains(p.ContentType, "text/plain") {
		t.Fatalf("content type: %q", p.ContentType)
	}
}
