package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/abd"
	"repro/internal/linear"
)

// No test here asserts a wall-clock time: they check arithmetic, inputs,
// verdicts and that every named metric is produced.

func TestBestDecile(t *testing.T) {
	xs := []float64{5, 1, 9, 3, 7, 2, 10, 4, 8, 6}
	if got := best(xs, higher); got != 9.1 {
		t.Fatalf("best rate = %v, want 9.1", got)
	}
	if got := best(xs, lower); got != 1.9 {
		t.Fatalf("best time = %v, want 1.9", got)
	}
	// Three disturbed windows out of ten do not move it.
	rates := []float64{100, 101, 60, 99, 100, 55, 102, 100, 70, 101}
	if got := best(rates, higher); got < 101 || got > 102 {
		t.Fatalf("best rate with disturbed windows = %v", got)
	}
}

func TestWindowQuantileIgnoresOneBadWindow(t *testing.T) {
	window := func(base uint32) []uint32 {
		w := make([]uint32, 100)
		for i := range w {
			w[i] = base + uint32(i)
		}
		return w
	}
	// Four steady windows and one in which everything took 100x longer.
	windows := [][]uint32{window(1000), window(1000), window(100_000), window(1000), window(1000)}
	got, n := windowQuantile(windows, 0.5)
	if n != 500 {
		t.Fatalf("samples = %d, want 500", n)
	}
	if got != 1049.5 {
		t.Fatalf("best of window medians = %v, want 1049.5 (the slow window must not move it)", got)
	}
	// Windows too small for the percentile are pooled instead of dropped.
	small := [][]uint32{{10, 20}, {30}, {40, 50}}
	if got, _ := windowQuantile(small, 0.5); got != 30 {
		t.Fatalf("pooled median = %v, want 30", got)
	}
	// p99 needs 1000 samples in a window; 100-sample windows are pooled.
	if got, _ := windowQuantile(windows, 0.99); got < 100_000 {
		t.Fatalf("pooled p99 = %v, want it inside the slow window", got)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Fatalf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	// statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
	q1, q2, q3 = quartiles([]float64{3, 1, 2})
	if q1 != 1 || q2 != 2 || q3 != 3 {
		t.Fatalf("quartiles = %v %v %v, want 1 2 3", q1, q2, q3)
	}
}

func TestSeedGivesIdenticalInputs(t *testing.T) {
	a, b := newDataset(42, 500, 256, 16), newDataset(42, 500, 256, 16)
	if strings.Join(a.keys, ",") != strings.Join(b.keys, ",") || !bytes.Equal(a.filler, b.filler) {
		t.Fatal("same seed, different keys or filler")
	}
	for i := range a.sampled {
		if a.sampled[i] != b.sampled[i] {
			t.Fatal("same seed, different sampled keys")
		}
	}
	sa, sb, sc := newOpStream(42, 1, 500, 0.5), newOpStream(42, 1, 500, 0.5), newOpStream(43, 1, 500, 0.5)
	same := true
	for i := 0; i < 10_000; i++ {
		ka, ia := sa.next()
		kb, ib := sb.next()
		kc, ic := sc.next()
		if ka != kb || ia != ib {
			t.Fatalf("op %d differs between two streams of one seed", i)
		}
		if ka != kc || ia != ic {
			same = false
		}
	}
	if same {
		t.Fatal("another seed gave the same op stream")
	}
	if other := newDataset(43, 500, 256, 16); strings.Join(other.keys, ",") == strings.Join(a.keys, ",") {
		t.Fatal("another seed gave the same keys")
	}
}

func TestValueStampRoundTrip(t *testing.T) {
	d := newDataset(1, 10, 256, 0)
	v := d.value(2, 7, 99)
	if c, s, ok := d.check(v, 7); !ok || c != 2 || s != 99 {
		t.Fatalf("check = %d %d %v", c, s, ok)
	}
	if _, _, ok := d.check(v, 8); ok {
		t.Fatal("value accepted for another key")
	}
	v[100] ^= 1
	if _, _, ok := d.check(v, 7); ok {
		t.Fatal("corrupted payload accepted")
	}
}

// pendingGet puts one get in flight on a client that has no runtime: with a
// target of zero the response handler verifies and records but issues
// nothing further.
func pendingGet(c *client, key, ownAcked uint32) uint64 {
	si := c.free[len(c.free)-1]
	c.free = c.free[:len(c.free)-1]
	id := uint64(c.id+1)<<56 | 1<<8 | uint64(si)
	c.slots[si] = slot{reqID: id, kind: kindGet, key: key, seq: ownAcked}
	c.inflight++
	c.attempted++
	return id
}

func TestStaleReadIsCaught(t *testing.T) {
	d := newDataset(1, 10, 256, 0)
	c := newClient(0, d, newOpStream(1, 0, 10, 1), time.Now())

	// The client saw its put 5 on key 3 acked, then reads its older put 4.
	id := pendingGet(c, 3, 5)
	c.onGet(abd.GetResponse{ReqID: id, Key: d.keys[3], Found: true, Value: d.value(0, 3, 4)})
	if c.failed != 1 || !strings.Contains(c.firstErr, "stale read") {
		t.Fatalf("failed = %d, err = %q; want one stale read", c.failed, c.firstErr)
	}
	// Reading the preload after an acked put is stale too.
	id = pendingGet(c, 3, 5)
	c.onGet(abd.GetResponse{ReqID: id, Key: d.keys[3], Found: true, Value: d.value(preloadClient, 3, 0)})
	if c.failed != 2 {
		t.Fatalf("failed = %d, want 2", c.failed)
	}
	// Its own put 5, a newer one, or another client's put are all fine.
	for _, v := range [][]byte{d.value(0, 3, 5), d.value(0, 3, 6), d.value(1, 3, 1)} {
		id = pendingGet(c, 3, 5)
		c.onGet(abd.GetResponse{ReqID: id, Key: d.keys[3], Found: true, Value: v})
	}
	if c.failed != 2 {
		t.Fatalf("failed = %d after three valid reads, want still 2", c.failed)
	}
	// A value written for another key is wrong whatever its age.
	id = pendingGet(c, 3, 0)
	c.onGet(abd.GetResponse{ReqID: id, Key: d.keys[3], Found: true, Value: d.value(0, 4, 9)})
	if c.failed != 3 {
		t.Fatalf("failed = %d, want 3", c.failed)
	}
}

func TestLostAckedPutIsCaught(t *testing.T) {
	d := newDataset(1, 10, 256, 0)
	acks := [][]ackRec{make([]ackRec, 10), make([]ackRec, 10)}
	const key = 2

	if msg := finalViolation(d, acks, key, d.value(preloadClient, key, 0), true); msg != "" {
		t.Fatalf("untouched key: %s", msg)
	}
	if msg := finalViolation(d, acks, key, nil, false); msg == "" {
		t.Fatal("missing preloaded key accepted")
	}
	// Client 0's put 3 was acked, but the store still holds the preload.
	acks[0][key] = ackRec{seq: 3, start: 100, end: 200}
	if msg := finalViolation(d, acks, key, d.value(preloadClient, key, 0), true); !strings.Contains(msg, "lost") {
		t.Fatalf("lost acked put not reported: %q", msg)
	}
	// ... or an older put of the same client.
	if msg := finalViolation(d, acks, key, d.value(0, key, 2), true); !strings.Contains(msg, "lost") {
		t.Fatalf("regressed to an older put not reported: %q", msg)
	}
	if msg := finalViolation(d, acks, key, d.value(0, key, 3), true); msg != "" {
		t.Fatalf("the acked put itself: %s", msg)
	}
	// Client 1's put started after client 0's was acked: it must win.
	acks[1][key] = ackRec{seq: 1, start: 300, end: 400}
	if msg := finalViolation(d, acks, key, d.value(0, key, 3), true); !strings.Contains(msg, "lost") {
		t.Fatalf("later acked put of another client lost, not reported: %q", msg)
	}
	if msg := finalViolation(d, acks, key, d.value(1, key, 1), true); msg != "" {
		t.Fatalf("the later put: %s", msg)
	}
	// Overlapping puts may land in either order.
	acks[1][key] = ackRec{seq: 1, start: 150, end: 400}
	if msg := finalViolation(d, acks, key, d.value(0, key, 3), true); msg != "" {
		t.Fatalf("overlapping puts: %s", msg)
	}
}

func TestHistoryCheck(t *testing.T) {
	put := func(c uint16, seq uint32, s, e int64) histOp {
		return histOp{kind: kindPut, client: c, seq: seq, start: s, end: e}
	}
	get := func(c uint16, seq uint32, s, e int64) histOp {
		return histOp{kind: kindGet, client: c, seq: seq, start: s, end: e}
	}
	ok := []histOp{get(preloadClient, 0, 1, 2), put(0, 1, 3, 4), get(0, 1, 5, 6), put(1, 1, 7, 8), get(1, 1, 9, 10)}
	if !checkHistory(ok) {
		t.Fatal("linearizable history rejected")
	}
	stale := []histOp{put(0, 1, 3, 4), get(preloadClient, 0, 5, 6)}
	if checkHistory(stale) {
		t.Fatal("read of the preload after an acked put accepted")
	}
	// A long history is cut to what linear.Check can hold, soundly: 100
	// sequential puts, each read back.
	var long []histOp
	for i := 0; i < 100; i++ {
		long = append(long, put(0, uint32(i+1), int64(10*i), int64(10*i+1)), get(0, uint32(i+1), int64(10*i+2), int64(10*i+3)))
	}
	if !checkHistory(long) {
		t.Fatal("long linearizable history rejected")
	}
	ops := make([]linear.Op, 70)
	for i := range ops {
		ops[i] = linear.Op{Kind: linear.Read, Start: int64(i), End: int64(i) + 100}
	}
	if got := boundHistory(ops); len(got) > maxHistory {
		t.Fatalf("bounded history has %d ops", len(got))
	}
}

func writeSet(t *testing.T, dir, name string, scale map[string]float64, jitter float64) string {
	t.Helper()
	set := runSet{Seconds: 1}
	for _, w := range workloads {
		for i := 0; i < 6; i++ {
			run := setRun{Workload: w.name, Seed: int64(i), Metrics: map[string]float64{}}
			for _, m := range endToEnd {
				f := 1.0
				if s, ok := scale[m.name]; ok {
					f = s
				}
				run.Metrics[m.name] = 100 * f * (1 + jitter*float64(i-3))
			}
			set.Runs = append(set.Runs, run)
		}
	}
	b, err := json.Marshal(set)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

const specPath = "../../BENCHMARK.json"

func TestCompare(t *testing.T) {
	dir := t.TempDir()
	base := writeSet(t, dir, "a.json", nil, 0.002)
	same := writeSet(t, dir, "b.json", nil, 0.002)
	// Every bound is 25 %: a 30 % drop is past it, a 20 % drop is not.
	slow := writeSet(t, dir, "c.json", map[string]float64{"ops_per_s": 0.7}, 0.002)
	within := writeSet(t, dir, "f.json", map[string]float64{"ops_per_s": 0.8}, 0.002)
	fast := writeSet(t, dir, "d.json", map[string]float64{"ops_per_s": 1.3}, 0.002)
	noisy := writeSet(t, dir, "e.json", nil, 0.3)

	var out bytes.Buffer
	if code := compareSets(&out, specPath, base, same); code != 0 || strings.Contains(out.String(), "regress") {
		t.Fatalf("identical sets: code %d\n%s", code, out.String())
	}
	out.Reset()
	if code := compareSets(&out, specPath, base, slow); code != 1 {
		t.Fatalf("30%% regression: code %d\n%s", code, out.String())
	}
	for _, line := range strings.Split(out.String(), "\n") {
		if strings.Contains(line, "regress") != strings.Contains(line, "ops_per_s") {
			t.Fatalf("only ops_per_s rows may regress: %q", line)
		}
	}
	out.Reset()
	if code := compareSets(&out, specPath, base, within); code != 0 {
		t.Fatalf("20%% drop, inside the bound, flagged: code %d\n%s", code, out.String())
	}
	out.Reset()
	if code := compareSets(&out, specPath, base, fast); code != 0 {
		t.Fatalf("30%% gain on a higher-is-better metric flagged: code %d\n%s", code, out.String())
	}
	out.Reset()
	if code := compareSets(&out, specPath, base, noisy); code != 1 || !strings.Contains(out.String(), "unresolved") {
		t.Fatalf("spread wider than the bound must be unresolved: code %d\n%s", code, out.String())
	}
}

// TestBenchmarkJSON holds the contract file and the program's metric lists
// equal, so a run can never print a metric the contract does not name.
func TestBenchmarkJSON(t *testing.T) {
	var spec struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := loadJSON(specPath, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) || len(spec.EndToEnd) != len(endToEnd) || len(spec.PerLayer) != len(perLayer) {
		t.Fatalf("contract has %d workloads, %d end-to-end, %d per-layer; program has %d, %d, %d",
			len(spec.Workloads), len(spec.EndToEnd), len(spec.PerLayer), len(workloads), len(endToEnd), len(perLayer))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name || spec.Workloads[i].Why == "" {
			t.Errorf("workload %d: contract %q, program %q", i, spec.Workloads[i].Name, w.name)
		}
	}
	for i, m := range endToEnd {
		if g := spec.EndToEnd[i]; g.Name != m.name || g.Unit != m.unit || g.Better != m.better || g.Bound != m.bound {
			t.Errorf("end-to-end %d: contract %+v, program %+v", i, g, m)
		}
	}
	for i, m := range perLayer {
		if g := spec.PerLayer[i]; g.Name != m.name || g.Unit != m.unit || g.Better != m.better {
			t.Errorf("per-layer %d: contract %+v, program %+v", i, g, m)
		}
	}
	if float64(spec.RunSeconds) != defaultConfig().seconds {
		t.Errorf("run_seconds %d, program default %v", spec.RunSeconds, defaultConfig().seconds)
	}
	// The driver's budget: 4 + 22 runs per workload within 3420 s.
	if runs := 4 + 22*len(workloads); runs*(spec.RunSeconds+12) > 3420 {
		t.Errorf("%d runs of %d s plus set-up do not fit the driver's 3420 s", runs, spec.RunSeconds)
	}
}

func smokeConfig(trace bool) config {
	cfg := defaultConfig().smoke()
	cfg.trace = trace
	cfg.seed = 5
	return cfg
}

// TestSmokeEveryMetric runs all four workloads traced, at smoke sizes, and
// requires a correct result, every end-to-end metric non-zero, every named
// per-layer metric present and nothing unnamed.
func TestSmokeEveryMetric(t *testing.T) {
	named := map[string]bool{}
	for _, m := range perLayer {
		named[m.name] = true
	}
	for _, w := range workloads {
		cfg := smokeConfig(true)
		cfg.outDir = t.TempDir()
		res, err := runWorkload(w, cfg)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
			t.Errorf("%s: correct=%v failed=%d attempted=%d errors=%v", w.name, res.Correct, res.Failed, res.Attempted, res.Errors)
		}
		for _, m := range endToEnd {
			if res.EndToEnd[m.name] <= 0 {
				t.Errorf("%s: end-to-end metric %s = %v", w.name, m.name, res.EndToEnd[m.name])
			}
		}
		if len(res.EndToEnd) != len(endToEnd) {
			t.Errorf("%s: %d end-to-end metrics produced, %d named", w.name, len(res.EndToEnd), len(endToEnd))
		}
		for name := range res.PerLayer {
			if !named[name] {
				t.Errorf("%s: per-layer metric %s is not named in the contract", w.name, name)
			}
		}
		if res.PerLayer["loadgen.trace_spans_dropped"] != 0 {
			t.Errorf("%s: %v spans dropped", w.name, res.PerLayer["loadgen.trace_spans_dropped"])
		}
		if res.PerLayer["loadgen.traced_ops"] == 0 {
			t.Errorf("%s: no traced operations", w.name)
		}
		if _, err := os.Stat(filepath.Join(cfg.outDir, "trace-"+w.name+".json")); err != nil {
			t.Errorf("%s: no span file: %v", w.name, err)
		}
		// The driver's line carries exactly the named metrics.
		metricsIn := func(line string) int {
			var l struct {
				Metrics map[string]struct {
					Value float64
					Unit  string
				}
			}
			if err := json.Unmarshal([]byte(line), &l); err != nil {
				t.Fatal(err)
			}
			return len(l.Metrics)
		}
		if n := metricsIn(driverLine(res)); n != len(perLayer) {
			t.Errorf("%s: traced line has %d metrics, want %d", w.name, n, len(perLayer))
		}
		res.Trace = false
		if n := metricsIn(driverLine(res)); n != len(endToEnd) {
			t.Errorf("%s: untraced line has %d metrics, want %d", w.name, n, len(endToEnd))
		}
		// Bypass checks at HEAD (bypassChecks enforces them; spelled out).
		pl := res.PerLayer
		if (pl["network.wire_bytes_per_op"] > 0) != w.tcp || (pl["kvstore.wal_appends_per_put"] > 0) != w.durable {
			t.Errorf("%s: wire bytes/op %v, WAL appends/put %v", w.name, pl["network.wire_bytes_per_op"], pl["kvstore.wal_appends_per_put"])
		}
	}
}

func TestCorruptedResponseFailsTheRun(t *testing.T) {
	cfg := smokeConfig(false)
	cfg.corruptOneGet = true
	w, _ := workloadByName("kv_get_mem")
	res, err := runWorkload(w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed == 0 || res.Correct {
		t.Fatalf("failed=%d correct=%v after a corrupted response", res.Failed, res.Correct)
	}
}

// TestSimCountsRepeat runs the simulation workload twice with one seed: the
// counts must be the same numbers, digit for digit.
func TestSimCountsRepeat(t *testing.T) {
	w, _ := workloadByName("sim_cluster64")
	run := func() *result {
		res, err := runWorkload(w, smokeConfig(true))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	for _, name := range []string{
		"simulation.events_per_op", "simulation.msgs_per_op", "simulation.handler_execs",
		"simulation.virt_get_p50_ms", "simulation.virt_put_p50_ms",
		"core.events_per_op", "core.steals_per_kop", "abd.restarts_per_kop", "router.resolved_per_op",
		"kvstore.reads_per_op", "kvstore.applies_per_op", "network.frames_per_op",
	} {
		if a.PerLayer[name] != b.PerLayer[name] {
			t.Errorf("%s: %v then %v", name, a.PerLayer[name], b.PerLayer[name])
		}
	}
	if a.Attempted != b.Attempted && a.PerLayer["simulation.handler_execs"] == 0 {
		t.Error("no handler executions counted")
	}
}
