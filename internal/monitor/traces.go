package monitor

import (
	"encoding/json"
	"fmt"
	"net/url"
	"strconv"

	"repro/internal/tracing"
	"repro/internal/web"
)

// Trace federation: the federate pattern applied to spans. Every member
// node keeps only its own slice of each sampled operation in its local
// span ring; the monitor scrapes each node's /debug/trace, joins the
// spans by trace ID, and serves assembled cross-node timelines at
// /traces — the only place an operation's full story (coordinator phases,
// replica serves, transport sends, handoff rounds) exists in one piece.

// defaultTraceLimit bounds an unfiltered /traces reply.
const defaultTraceLimit = 100

// collectSpans fetches every target's span ring (node name → host:port),
// in parallel, and returns the merged span set plus per-node scrape errors.
// Spans keep their own Node field, so merge order does not matter for the
// assembled timelines.
func collectSpans(targets map[string]string) ([]tracing.Span, map[string]string) {
	var spans []tracing.Span
	errs := make(map[string]string)
	for _, r := range scrapeAll(targets, "/debug/trace", maxTraceBody) {
		var dump web.TraceDump
		if r.err == nil {
			if err := json.Unmarshal(r.body, &dump); err != nil {
				r.err = fmt.Errorf("bad trace dump: %w", err)
			}
		}
		if r.err != nil {
			errs[r.node] = r.err.Error()
			continue
		}
		spans = append(spans, dump.Spans...)
	}
	return spans, errs
}

// TracesReply is the JSON document served at /traces (and consumed by
// catsctl trace / catsctl traces).
type TracesReply struct {
	// NodesScraped is how many member nodes contributed spans.
	NodesScraped int `json:"nodes_scraped"`
	// ScrapeErrors lists nodes whose ring could not be fetched.
	ScrapeErrors map[string]string `json:"scrape_errors,omitempty"`
	// Timelines is the count after filtering (len(Result)).
	Timelines int `json:"timelines"`
	// Result holds the assembled, filtered timelines.
	Result []tracing.Timeline `json:"result"`
}

// FilterTimelines applies the /traces query parameters to assembled
// timelines:
//
//	id=<hex>     exactly one trace
//	phase=<name> only timelines containing a span with that name
//	restarts=N   only timelines with at least N epoch-restart links
//	slowest=N    slowest-first, truncated to N
//	limit=N      truncate (default 100; ignored when slowest is given)
func FilterTimelines(tls []tracing.Timeline, q url.Values) ([]tracing.Timeline, error) {
	if idS := q.Get("id"); idS != "" {
		id, err := tracing.ParseID(idS)
		if err != nil {
			return nil, err
		}
		var out []tracing.Timeline
		for _, tl := range tls {
			if tl.Trace == id {
				out = append(out, tl)
			}
		}
		return out, nil
	}
	if phase := q.Get("phase"); phase != "" {
		kept := tls[:0]
		for _, tl := range tls {
			if tl.HasPhase(phase) {
				kept = append(kept, tl)
			}
		}
		tls = kept
	}
	if rs := q.Get("restarts"); rs != "" {
		min, err := strconv.Atoi(rs)
		if err != nil {
			return nil, fmt.Errorf("bad restarts %q: %w", rs, err)
		}
		kept := tls[:0]
		for _, tl := range tls {
			if tl.Restarts >= min {
				kept = append(kept, tl)
			}
		}
		tls = kept
	}
	limit := defaultTraceLimit
	if ns := q.Get("slowest"); ns != "" {
		n, err := strconv.Atoi(ns)
		if err != nil || n <= 0 {
			return nil, fmt.Errorf("bad slowest %q", ns)
		}
		tracing.SortSlowest(tls)
		limit = n
	} else if ls := q.Get("limit"); ls != "" {
		n, err := strconv.Atoi(ls)
		if err != nil || n <= 0 {
			return nil, fmt.Errorf("bad limit %q", ls)
		}
		limit = n
	}
	if len(tls) > limit {
		tls = tls[:limit]
	}
	return tls, nil
}

// renderTraces scrapes every reporting node's span ring, assembles the
// cross-node timelines, and serves the filtered result as JSON.
func (s *Server) renderTraces(r web.Request) {
	q, err := url.ParseQuery(r.Query)
	if err != nil {
		s.tracesError(r, err)
		return
	}
	targets := s.scrapeTargets()
	spans, errs := collectSpans(targets)
	tls, err := FilterTimelines(tracing.Assemble(spans), q)
	if err != nil {
		s.tracesError(r, err)
		return
	}
	reply := TracesReply{
		NodesScraped: len(targets) - len(errs),
		ScrapeErrors: errs,
		Timelines:    len(tls),
		Result:       tls,
	}
	body, err := json.MarshalIndent(reply, "", "  ")
	if err != nil {
		s.tracesError(r, err)
		return
	}
	s.ctx.Trigger(web.Response{
		ReqID:       r.ReqID,
		Status:      200,
		ContentType: "application/json",
		Body:        string(body),
	}, s.webP)
}

func (s *Server) tracesError(r web.Request, err error) {
	s.ctx.Trigger(web.Response{
		ReqID:       r.ReqID,
		Status:      400,
		ContentType: "text/plain; charset=utf-8",
		Body:        err.Error() + "\n",
	}, s.webP)
}
