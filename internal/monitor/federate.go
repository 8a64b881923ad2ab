package monitor

import (
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/web"
)

// Metrics federation: the monitor server already learns every node's web
// listen address from its reports, so /federate scrapes each node's
// /metrics endpoint, stamps every sample with a node="..." label, and
// serves the merged exposition — one scrape target for a Prometheus that
// cannot reach (or does not want to enumerate) the individual nodes.

// scrapeTimeout bounds each per-node scrape behind /federate and /traces.
const scrapeTimeout = 2 * time.Second

// Response-size limits: a scrape reads at most this much of a node's reply,
// so one misbehaving node cannot exhaust the monitor's memory.
const (
	maxMetricsBody = 4 << 20  // /metrics
	maxTraceBody   = 16 << 20 // /debug/trace
)

var scrapeClient = &http.Client{Timeout: scrapeTimeout}

// scrapeResult is one node's scrape outcome.
type scrapeResult struct {
	node string
	body []byte
	err  error
}

// scrapeAll fetches path from every target (node name → host:port), in
// parallel, reading at most limit bytes of each reply. Results are sorted
// by node name. It is plain Go (no component state) so both endpoints can
// be unit-tested against httptest servers.
func scrapeAll(targets map[string]string, path string, limit int64) []scrapeResult {
	names := make([]string, 0, len(targets))
	for n := range targets {
		names = append(names, n)
	}
	sort.Strings(names)

	results := make([]scrapeResult, len(names))
	var wg sync.WaitGroup
	for i, n := range names {
		wg.Add(1)
		go func(i int, node, host string) {
			defer wg.Done()
			body, err := fetch("http://"+host+path, limit)
			results[i] = scrapeResult{node: node, body: body, err: err}
		}(i, n, targets[n])
	}
	wg.Wait()
	return results
}

// fetch GETs url and returns at most limit bytes of a 200 reply.
func fetch(url string, limit int64) ([]byte, error) {
	resp, err := scrapeClient.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("status %d", resp.StatusCode)
	}
	return io.ReadAll(io.LimitReader(resp.Body, limit))
}

// federate fetches host/metrics from every target and returns the merged
// exposition: failed nodes recorded as comments so the output still says
// who was unreachable, then one group per metric family — its HELP/TYPE
// header once, followed by every node's samples labeled with the node's
// name, nodes sorted by name. Families keep the order in which they first
// appear.
func federate(targets map[string]string) string {
	results := scrapeAll(targets, "/metrics", maxMetricsBody)
	var b strings.Builder
	fmt.Fprintf(&b, "# CATS federation: %d nodes\n", len(results))
	var merged []*familyBlock
	byName := make(map[string]*familyBlock)
	for _, r := range results {
		if r.err != nil {
			fmt.Fprintf(&b, "# node %s: scrape failed: %v\n", r.node, r.err)
			continue
		}
		for _, fam := range splitFamilies(string(r.body)) {
			m, ok := byName[fam.name]
			if !ok {
				m = &familyBlock{name: fam.name, header: fam.header}
				byName[fam.name] = m
				merged = append(merged, m)
			}
			m.samples += InjectNodeLabel(fam.samples, r.node)
		}
	}
	for _, m := range merged {
		b.WriteString(m.header)
		b.WriteString(m.samples)
	}
	return b.String()
}

// familyBlock is one metric family's lines of an exposition.
type familyBlock struct {
	name            string
	histogram       bool
	header, samples string
}

// splitFamilies cuts an exposition into family blocks. A HELP or TYPE line
// names its family; a sample belongs to the family it is named after, or to
// the histogram whose _bucket, _sum or _count series it is. Other comments
// are dropped.
func splitFamilies(body string) []*familyBlock {
	var out []*familyBlock
	var cur *familyBlock
	for _, line := range strings.Split(body, "\n") {
		var name string
		var fields []string
		header := strings.HasPrefix(line, "#")
		if header {
			fields = strings.Fields(line)
			if len(fields) < 3 || (fields[1] != "HELP" && fields[1] != "TYPE") {
				continue
			}
			name = fields[2]
		} else if end := strings.IndexAny(line, "{ "); end > 0 {
			name = line[:end]
		} else {
			continue
		}
		same := cur != nil && (name == cur.name || !header && cur.histogram && isHistogramSeries(name, cur.name))
		if !same {
			cur = &familyBlock{name: name}
			out = append(out, cur)
		}
		if header {
			cur.header += line + "\n"
			if fields[1] == "TYPE" && len(fields) == 4 && fields[3] == "histogram" {
				cur.histogram = true
			}
		} else {
			cur.samples += line + "\n"
		}
	}
	return out
}

func isHistogramSeries(sample, family string) bool {
	suffix, ok := strings.CutPrefix(sample, family)
	return ok && (suffix == "_bucket" || suffix == "_sum" || suffix == "_count")
}

// InjectNodeLabel rewrites a Prometheus text exposition so every sample
// carries node="name": comment and blank lines pass through, labeled
// samples get the node label prepended, bare samples gain a label set.
func InjectNodeLabel(body, node string) string {
	var b strings.Builder
	for _, line := range strings.Split(body, "\n") {
		switch {
		case line == "" || strings.HasPrefix(line, "#"):
			if line != "" {
				b.WriteString(line)
				b.WriteByte('\n')
			}
		case strings.Contains(line, "{"):
			b.WriteString(strings.Replace(line, "{", `{node="`+node+`",`, 1))
			b.WriteByte('\n')
		default:
			sp := strings.IndexAny(line, " \t")
			if sp < 0 {
				b.WriteString(line)
				b.WriteByte('\n')
				continue
			}
			fmt.Fprintf(&b, "%s{node=%q}%s\n", line[:sp], node, line[sp:])
		}
	}
	return b.String()
}

// renderFederate serves the merged scrape of every reporting node that
// advertised a metrics URL.
func (s *Server) renderFederate(r web.Request) {
	s.ctx.Trigger(web.Response{
		ReqID:       r.ReqID,
		Status:      200,
		ContentType: "text/plain; version=0.0.4; charset=utf-8",
		Body:        federate(s.scrapeTargets()),
	}, s.webP)
}

// scrapeTargets expires stale views and returns every remaining node that
// advertised a web listen address (node name → host:port).
func (s *Server) scrapeTargets() map[string]string {
	s.expire()
	targets := make(map[string]string)
	for name, v := range s.views {
		if v.MetricsURL != "" {
			targets[name] = v.MetricsURL
		}
	}
	return targets
}
