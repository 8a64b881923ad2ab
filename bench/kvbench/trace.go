package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"repro/internal/tracing"
)

// A traced run pulls the spans the program already emits (op, attempt,
// route, read, write, serve.*, net.send) into a private ring through the
// tracing package's public functions, joins them with the benchmark's own
// per-operation records, and turns them into per-layer times. Nothing in
// the program is changed; new spans inside it are a later issue.

// traceRingSize bounds span memory; the sampling periods are chosen so that
// a run fills well under it (loadgen.trace_spans_dropped must stay 0).
const traceRingSize = 1 << 18

// spansPerOp is an upper estimate of the spans one traced put emits.
const spansPerOp = 16

func spansDropped(r *tracing.Ring) uint64 {
	if n := r.Recorded(); n > uint64(r.Cap()) {
		return n - uint64(r.Cap())
	}
	return 0
}

// tracer switches span sampling on and off around the phases of a KV run.
// Every method is a no-op in an untraced run, which leaves the program's
// tracing exactly as shipped.
type tracer struct {
	on                 bool
	ring               *tracing.Ring
	prevRing           *tracing.Ring
	prevEvery          int
	latEvery, satEvery int
	latEnd             time.Time
	probes             []tracing.Span
}

func newTracer(cfg config) *tracer {
	t := &tracer{on: cfg.trace}
	if t.on {
		t.ring = tracing.NewRing(traceRingSize)
		t.prevRing = tracing.SwapDefault(t.ring)
		t.prevEvery = tracing.SetSampleEvery(0)
	}
	return t
}

func (t *tracer) close() {
	if t.on {
		tracing.SetSampleEvery(t.prevEvery)
		tracing.SwapDefault(t.prevRing)
	}
}

// plan picks the sampling periods from the rate the warm-up reached, so
// that each phase records at most about 40 % of the ring.
func (t *tracer) plan(opsPerSec float64, lat, sat time.Duration) {
	period := func(traced time.Duration) int {
		spans := opsPerSec * traced.Seconds() * spansPerOp
		return int(spans/(0.4*traceRingSize)) + 1 // SetSampleEvery rounds up to a power of two
	}
	t.latEvery = period(lat)
	t.satEvery = period(sat / 2)
}

func (t *tracer) latWindow(i int) {
	if t.on && i == 0 {
		tracing.SetSampleEvery(t.latEvery)
	}
}

func (t *tracer) endLatency() {
	if t.on {
		tracing.SetSampleEvery(0)
		t.latEnd = time.Now()
	}
}

// satWindow traces every other window of the saturation phase; the
// untraced windows are the base of loadgen.trace_overhead_pct.
func (t *tracer) satWindow(i int) {
	if !t.on {
		return
	}
	if i%2 == 1 {
		tracing.SetSampleEvery(t.satEvery)
	} else {
		tracing.SetSampleEvery(0)
	}
}

func (t *tracer) endSaturation() {
	if t.on {
		tracing.SetSampleEvery(0)
	}
}

// traceOverheadPct compares the traced windows of the saturation phase
// with the untraced ones.
func traceOverheadPct(sat *phaseStats) float64 {
	var traced, plain []float64
	for i, d := range sat.done {
		if i%2 == 1 {
			traced = append(traced, float64(d))
		} else {
			plain = append(plain, float64(d))
		}
	}
	if len(traced) == 0 || len(plain) == 0 {
		return 0
	}
	return 100 * (1 - median(traced)/median(plain))
}

// clientJoin finds the benchmark's own record of the operation a program
// span belongs to: same coordinator, same key, and the program's span lies
// inside the client's. A client never has two operations in flight on one
// key, so at most one record matches.
type clientJoin struct {
	base    time.Time
	keyIdx  map[string]uint32
	nodeIdx map[string]int
	recs    []map[uint32][]opRec // client → key → records
	matched []matchedOp
}

// matchedOp is a client record that a traced program span joined to.
type matchedOp struct {
	client int
	rec    opRec
}

func newClientJoin(base time.Time, data *dataset, cl *cluster, phases ...*phaseStats) *clientJoin {
	j := &clientJoin{base: base, keyIdx: map[string]uint32{}, nodeIdx: map[string]int{}}
	for i, k := range data.keys {
		j.keyIdx[k] = uint32(i)
	}
	for i, p := range cl.peers {
		j.nodeIdx[p.NodeCfg.Self.Addr.String()] = i
		j.recs = append(j.recs, map[uint32][]opRec{})
	}
	for _, ps := range phases {
		for i, p := range ps.perNode {
			for _, r := range p.recs {
				j.recs[i][r.key] = append(j.recs[i][r.key], r)
			}
		}
	}
	return j
}

func (j *clientJoin) find(root tracing.Span) (opRec, bool) {
	node, ok := j.nodeIdx[root.Node]
	if !ok {
		return opRec{}, false
	}
	start, end := int64(root.Start.Sub(j.base)), int64(root.End.Sub(j.base))
	for _, r := range j.recs[node][j.keyIdx[root.Key]] {
		if r.start <= start && end <= r.end {
			j.matched = append(j.matched, matchedOp{node, r})
			return r, true
		}
	}
	return opRec{}, false
}

func us(d time.Duration) float64 { return float64(d) / 1e3 }

// spanMetrics turns the pulled spans into the traced per-layer metrics and
// the ledger. Only operations that began before until count (zero: all);
// for a KV run that is the latency phase, where one operation in flight
// per coordinator makes a span's length that layer's own time.
func spanMetrics(res *result, spans []tracing.Span, join *clientJoin, until time.Time, readMajority bool) {
	type samples struct {
		total, toABD, fromABD, abdSelf, route, read, write []float64
	}
	var byKind [2]samples
	var opUS, routeUS, readUS, writeUS, toServe, toAck, sendUS []float64
	gets, fastGets := 0, 0
	for _, tl := range tracing.Assemble(spans) {
		var root *tracing.Span
		var attempts, phases, serves, sends []tracing.Span
		for i := range tl.Spans {
			s := &tl.Spans[i]
			switch {
			case s.Parent == 0 && (s.Name == "get" || s.Name == "put"):
				root = s
			case s.Name == "attempt":
				attempts = append(attempts, *s)
			case s.Name == "route", s.Name == "read", s.Name == "write":
				phases = append(phases, *s)
			case s.Name == "serve.read", s.Name == "serve.write":
				serves = append(serves, *s)
			case s.Name == "net.send":
				sends = append(sends, *s)
			}
		}
		// Retried or restarted operations are rare and counted elsewhere;
		// the ledger describes the plain path.
		if root == nil || root.Outcome != "ok" || len(attempts) != 1 ||
			(!until.IsZero() && root.Start.After(until)) {
			continue
		}
		kind := kindGet
		if root.Name == "put" {
			kind = kindPut
		}
		k := &byKind[kind]
		opUS = append(opUS, us(root.Duration()))
		var phaseSum time.Duration
		hasWrite := false
		for _, p := range phases {
			phaseSum += p.Duration()
			var arrivals []time.Time
			for _, s := range serves {
				if s.Name == "serve."+p.Name && s.Outcome == "ok" {
					arrivals = append(arrivals, s.Start)
					toServe = append(toServe, us(s.Start.Sub(p.Start)))
				}
			}
			sort.Slice(arrivals, func(a, b int) bool { return arrivals[a].Before(arrivals[b]) })
			if len(arrivals) >= 2 {
				// The second replica to serve completes a quorum of three.
				toAck = append(toAck, us(p.End.Sub(arrivals[1])))
			}
			for _, s := range sends {
				if !s.Start.Before(p.Start) && !s.Start.After(p.End) && p.Name != "route" {
					sendUS = append(sendUS, us(s.Start.Sub(p.Start)))
				}
			}
			switch p.Name {
			case "route":
				routeUS = append(routeUS, us(p.Duration()))
				k.route = append(k.route, us(p.Duration()))
			case "read":
				readUS = append(readUS, us(p.Duration()))
				k.read = append(k.read, us(p.Duration()))
			case "write":
				hasWrite = true
				writeUS = append(writeUS, us(p.Duration()))
				k.write = append(k.write, us(p.Duration()))
			}
		}
		if kind == kindGet {
			gets++
			if !hasWrite {
				fastGets++
			}
		}
		// Self time of the op and attempt spans: what their children do
		// not cover.
		k.abdSelf = append(k.abdSelf, us(root.Duration()-phaseSum))
		if join != nil {
			if rec, ok := join.find(*root); ok {
				start, end := int64(root.Start.Sub(join.base)), int64(root.End.Sub(join.base))
				k.total = append(k.total, float64(rec.end-rec.start)/1e3)
				k.toABD = append(k.toABD, float64(start-rec.start)/1e3)
				k.fromABD = append(k.fromABD, float64(rec.end-end)/1e3)
			}
		}
	}

	pl := res.PerLayer
	pl["abd.op_us"] = median(opUS)
	pl["abd.route_us"] = median(routeUS)
	pl["abd.read_phase_us"] = median(readUS)
	pl["abd.write_phase_us"] = median(writeUS)
	pl["abd.read_to_serve_us"] = median(toServe)
	pl["abd.serve_to_ack_us"] = median(toAck)
	pl["abd.get_fastpath_frac"] = ratio(float64(fastGets), float64(gets))
	pl["network.send_us"] = median(sendUS)
	pl["loadgen.traced_ops"] = float64(len(opUS))

	major := kindPut
	if readMajority {
		major = kindGet
	}
	pl["core.client_to_abd_us"] = median(byKind[major].toABD)
	pl["core.abd_to_client_us"] = median(byKind[major].fromABD)
	for kind, name := range []string{"get", "put"} {
		k := byKind[kind]
		if len(k.total) == 0 {
			continue
		}
		rows := []ledgerRow{
			{name + " core: client trigger -> abd handler", median(k.toABD)},
			{name + " abd: op and attempt self", median(k.abdSelf)},
			{name + " router: route phase", median(k.route)},
			{name + " abd: read phase (network, replicas, kvstore)", median(k.read)},
			{name + " abd: write phase (network, replicas, kvstore, WAL)", median(k.write)},
			{name + " core: abd response -> client handler", median(k.fromABD)},
		}
		total, sum := median(k.total), 0.0
		for _, r := range rows {
			sum += r.US
		}
		rows = append(rows,
			ledgerRow{name + " unattributed (medians do not add; span gaps)", total - sum},
			ledgerRow{name + " median op latency, traced ops", total})
		res.Ledger = append(res.Ledger, rows...)
		if opKind(kind) == major {
			pl["loadgen.unattributed_us"] = total - sum
		}
	}
}

// probeSpan records the benchmark's own span around one probe.
func (t *tracer) probeSpan(name string, start time.Time) {
	t.probes = append(t.probes, tracing.Span{Node: "kvbench", Name: "probe." + name, Start: start, End: time.Now()})
}

// writeSpans writes everything that was traced — the program's spans, the
// benchmark's per-operation records and its probe spans — to
// <out>/trace-<workload>.json. Without -out the file lands in the run's
// temporary directory and goes away with it.
func (t *tracer) writeSpans(cfg config, tmp, workload string, spans []tracing.Span, join *clientJoin) error {
	type clientOp struct {
		Client int       `json:"client"`
		Key    uint32    `json:"key"`
		Kind   string    `json:"kind"`
		Start  time.Time `json:"start"`
		Issued time.Time `json:"issued"`
		End    time.Time `json:"end"`
	}
	out := struct {
		Workload  string         `json:"workload"`
		Seed      int64          `json:"seed"`
		Spans     []tracing.Span `json:"spans"`
		ClientOps []clientOp     `json:"client_ops"`
		Probes    []tracing.Span `json:"probes"`
	}{Workload: workload, Seed: cfg.seed, Spans: spans, Probes: t.probes}
	if join != nil {
		for _, m := range join.matched {
			kind := "get"
			if m.rec.kind == kindPut {
				kind = "put"
			}
			at := func(ns int64) time.Time { return join.base.Add(time.Duration(ns)) }
			out.ClientOps = append(out.ClientOps, clientOp{m.client, m.rec.key, kind, at(m.rec.start), at(m.rec.issued), at(m.rec.end)})
		}
	}
	dir := cfg.outDir
	if dir == "" {
		dir = tmp
	}
	f, err := os.Create(filepath.Join(dir, "trace-"+workload+".json"))
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(out); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}
