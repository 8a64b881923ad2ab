package main

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/cats"
	"repro/internal/experiments"
)

// TestMain lets the runner tests spawn this test binary as their child
// process, over the fake registry below.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "child" {
		os.Exit(child(fakeRegistry, os.Args[2:], os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

func TestRegistryNamesUnique(t *testing.T) {
	seen := map[string]bool{}
	for _, e := range registry {
		if seen[e.name] {
			t.Errorf("duplicate scenario name %q", e.name)
		}
		seen[e.name] = true
		for _, a := range e.attrs {
			if slices.ContainsFunc(registry, func(o *entry) bool { return o.name == a }) {
				t.Errorf("%s: attribute %q shadows a scenario name", e.name, a)
			}
		}
	}
}

func TestGateEntriesHaveSeedsAndInvariants(t *testing.T) {
	for _, e := range registry {
		if !slices.Contains(e.attrs, "gate") {
			continue
		}
		if len(e.seeds) == 0 || len(e.checks) == 0 || e.wallClock {
			t.Errorf("gate entry %s: %d seeds, %d invariants, wallClock=%t; want >= 1, >= 1, false",
				e.name, len(e.seeds), len(e.checks), e.wallClock)
		}
		names := map[string]bool{}
		for _, c := range e.checks {
			if names[c.name] {
				t.Errorf("gate entry %s: duplicate invariant %q", e.name, c.name)
			}
			names[c.name] = true
		}
	}
}

// TestListStable pins `catssim list`: the names, attributes and seeds CI
// runs. Adding or changing an entry updates this text on purpose.
func TestListStable(t *testing.T) {
	const want = `sim            gate   7,41,1003,22222,987654321  boot, churn, lookups and put/get on 30 nodes in virtual time, every handler execution digested
chaos          gate   3,77,4242                  quorum ops through crash-restart churn past suspicion, link flaps and a healed partition
chaos-long     gate   11                         chaos with outages twice the suspicion threshold: eviction, ring repair, rejoin
chaos-durable  gate   5                          chaos on WAL-backed stores (sync=always, small snapshot threshold)
gray           gate   3,77,4242                  straggler pulses and a same-instant op burst: hedges must engage
codecswap      gate   1,9,451                    live wire-codec swaps (gob, binary, gob+zlib) and link flaps under quorum traffic
recovery       gate   3,21,99                    SIGKILL a durable cluster mid-churn, rebuild it from WAL + snapshots in a new process
hedge          gate   2012                       hedged quorum phases vs a fixed deadline under a pulsed gray replica (virtual-time p99)
local          paper  42                         the sim scenario in real time over the in-process loopback network (Figure 12 right)
table1         paper  2012                       Table 1: simulation time compression vs peers
latency        paper  -                          C1: end-to-end op latency on an in-process cluster (sub-ms claim)
scaling        paper  2012                       C2: read throughput vs cluster size (simulated, closed loop)
stealing       paper  -                          C3: work-stealing batch ablation, steal-one vs steal-half
`
	var out bytes.Buffer
	if code := list(registry, nil, &out, io.Discard); code != 0 || out.String() != want {
		t.Fatalf("catssim list = %d:\n%s\nwant:\n%s", code, out.String(), want)
	}
	out.Reset()
	list(registry, []string{"gate"}, &out, io.Discard)
	if n := strings.Count(out.String(), "\n"); n != 8 {
		t.Errorf("catssim list gate: %d entries, want 8", n)
	}
}

// passingChurn passes every chaos invariant, durable ones included.
var passingChurn = experiments.ChurnResult{
	HistoryAudit: experiments.HistoryAudit{Linearizable: true},
	StoreKeys:    1, StoreShardsInUse: 1, HandoffTransfers: 1, MaxEpoch: 1, TraceTimelines: 1,
	WALAppends: 1, WALSyncs: 1,
}

var churnFlips = map[string]string{
	"Linearizable":     "linearizable",
	"LostAckedWrites":  "no-lost-acked-writes",
	"StoreKeys":        "stores-populated",
	"StoreShardsInUse": "stores-populated",
	"HandoffTransfers": "handoff-ran",
	"MaxEpoch":         "epoch-advanced",
	"TraceTimelines":   "timelines-assembled",
}

// sabotageTable names, per gate entry, a passing result and every field
// an invariant reads, with the invariant that must fail when the field is
// zeroed (or flipped, for booleans and fields that pass at zero).
var sabotageTable = []struct {
	entry string
	pass  any
	flips map[string]string
}{
	{"sim", simResult{Metrics: cats.Metrics{PutsOK: 1, GetsOK: 1}, TraceRecords: 1}, map[string]string{
		"Metrics.PutsOK": "ops-completed",
		"Metrics.GetsOK": "ops-completed",
		"TraceRecords":   "handlers-traced",
	}},
	{"chaos", passingChurn, churnFlips},
	{"chaos-long", passingChurn, churnFlips},
	{"chaos-durable", passingChurn, mergeFlips(churnFlips, map[string]string{
		"WALAppends": "wal-active",
		"WALSyncs":   "wal-active",
	})},
	{"gray", experiments.GrayResult{
		HistoryAudit: experiments.HistoryAudit{Linearizable: true},
		SlowWindows:  1, SlowDelayed: 1, Hedges: 1, HedgeWins: 1,
	}, map[string]string{
		"Linearizable":    "linearizable",
		"LostAckedWrites": "no-lost-acked-writes",
		"SlowWindows":     "gray-faults-injected",
		"SlowDelayed":     "gray-faults-injected",
		"Hedges":          "hedges-fired",
		"HedgeWins":       "hedges-fired",
	}},
	{"codecswap", experiments.CodecSwapResult{
		HistoryAudit: experiments.HistoryAudit{Linearizable: true},
		CodecSwaps:   1, BinaryFrames: 1, GobFrames: 1,
	}, map[string]string{
		"Linearizable":    "linearizable",
		"LostAckedWrites": "no-lost-acked-writes",
		"CodecErrors":     "no-codec-errors",
		"CodecSwaps":      "swaps-applied",
		"BinaryFrames":    "both-formats-on-wire",
		"GobFrames":       "both-formats-on-wire",
	}},
	{"recovery", experiments.RecoveryResult{
		Linearizable: true, WALReplayed: 1, SnapshotsLoaded: 1, RecoveredKeys: 1, HandoffTransfers: 1,
	}, map[string]string{
		"Linearizable":     "linearizable",
		"LostAckedWrites":  "no-lost-acked-writes",
		"WALReplayed":      "wal-replayed",
		"SnapshotsLoaded":  "snapshots-loaded",
		"RecoveredKeys":    "keys-recovered",
		"HandoffTransfers": "handoff-ran",
	}},
	{"hedge", experiments.HedgeBenchResult{
		Off:    experiments.HedgeArm{P99: 300 * time.Millisecond},
		On:     experiments.HedgeArm{P99: 9 * time.Millisecond},
		Hedges: 1, HedgeWins: 1, P99Improvement: hedgeBaseline,
	}, map[string]string{
		"Hedges":         "hedges-fired",
		"HedgeWins":      "hedges-fired",
		"On.Failed":      "no-failed-ops",
		"Off.Failed":     "no-failed-ops",
		"Off.P99":        "p99-improves",
		"P99Improvement": "p99-improvement-floor",
	}},
}

func mergeFlips(a, b map[string]string) map[string]string {
	out := map[string]string{}
	for k, v := range a {
		out[k] = v
	}
	for k, v := range b {
		out[k] = v
	}
	return out
}

// sabotage returns a copy of pass with one (possibly nested) field
// zeroed, or set to 1 if it is already zero; booleans are flipped.
func sabotage(t *testing.T, pass any, path string) any {
	v := reflect.New(reflect.TypeOf(pass)).Elem()
	v.Set(reflect.ValueOf(pass))
	f := v
	for _, name := range strings.Split(path, ".") {
		f = f.FieldByName(name)
	}
	switch {
	case f.Kind() == reflect.Bool:
		f.SetBool(!f.Bool())
	case f.CanInt():
		f.SetInt(int64(boolToInt(f.Int() == 0)))
	case f.CanUint():
		f.SetUint(uint64(boolToInt(f.Uint() == 0)))
	case f.CanFloat():
		f.SetFloat(float64(boolToInt(f.Float() == 0)))
	default:
		t.Fatalf("cannot sabotage field %q of %T", path, pass)
	}
	return v.Interface()
}

func boolToInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

// TestSabotageTable: for every gate entry, a passing result passes every
// invariant, each checked field sabotaged in turn fails the invariant that
// reads it, and every invariant is reached by some sabotaged field.
func TestSabotageTable(t *testing.T) {
	covered := map[string]bool{}
	for _, row := range sabotageTable {
		e := registry[slices.IndexFunc(registry, func(e *entry) bool { return e.name == row.entry })]
		covered[e.name] = true
		for _, c := range e.checks {
			if !c.holds(row.pass) {
				t.Errorf("%s: passing result fails invariant %s", e.name, c.name)
			}
		}
		reached := map[string]bool{}
		for field, name := range row.flips {
			i := slices.IndexFunc(e.checks, func(c check) bool { return c.name == name })
			if i < 0 {
				t.Errorf("%s: table names unknown invariant %q", e.name, name)
				continue
			}
			if e.checks[i].holds(sabotage(t, row.pass, field)) {
				t.Errorf("%s: sabotaged %s still passes invariant %s", e.name, field, name)
			}
			reached[name] = true
		}
		for _, c := range e.checks {
			if !reached[c.name] {
				t.Errorf("%s: no sabotaged field reaches invariant %s", e.name, c.name)
			}
		}
	}
	for _, e := range registry {
		if slices.Contains(e.attrs, "gate") && !covered[e.name] {
			t.Errorf("gate entry %s has no sabotage table row", e.name)
		}
	}
}

// TestGateDigestsPinned pins run identity: the handler-trace digest of the
// sim entry at seed 7 and of chaos-durable at seed 5. A change that keeps
// both runs of a seed equal to each other can still move every report;
// this catches it. The digests cover every handler execution, so any
// change to component paths, RNG streams or dispatch order moves them.
// For example, booting the durable cluster under CatsSimulationMain
// instead of CatsRecoveryMain re-seeds every component RNG, and
// chaos-durable then reads records=22953 digest=7d3021a89920c34e.
func TestGateDigestsPinned(t *testing.T) {
	for _, tc := range []struct {
		name string
		seed int64
		want string
	}{
		{"sim", 7, "trace: records=273699 digest=fbb7daa85977ca32"},
		{"chaos-durable", 5, "trace: records=22889 digest=8ef71ac81ae3df5c"},
	} {
		e := registry[slices.IndexFunc(registry, func(e *entry) bool { return e.name == tc.name })]
		var out bytes.Buffer
		if _, err := e.run(&out, tc.seed, t.TempDir()); err != nil {
			t.Fatalf("%s seed=%d: %v", tc.name, tc.seed, err)
		}
		if !strings.Contains(out.String(), "  "+tc.want+"\n") {
			t.Errorf("%s seed=%d: report lacks %q:\n%s", tc.name, tc.seed, tc.want, out.String())
		}
	}
}

// fakeRegistry is what the runner tests' child processes run.
var fakeRegistry = []*entry{
	{
		name: "fake-pass", attrs: []string{"fake"}, seeds: []int64{1, 2},
		run: func(w io.Writer, seed int64, _ string) (any, error) {
			fmt.Fprintf(w, "fake-pass seed=%d\n", seed)
			return seed, nil
		},
		checks: []check{inv("seed-positive", func(s int64) bool { return s > 0 })},
	},
	{
		name: "fake-diverge", seeds: []int64{1},
		run: func(w io.Writer, _ int64, _ string) (any, error) {
			fmt.Fprintf(w, "pid=%d\n", os.Getpid())
			return 0, nil
		},
	},
	{
		name: "fake-crash-survives", seeds: []int64{1}, durable: true,
		crash: func(int64, string) error { return nil },
		run:   func(io.Writer, int64, string) (any, error) { return 0, nil },
	},
	{
		name: "fake-crash-recover", seeds: []int64{4}, durable: true,
		crash: func(seed int64, dir string) error {
			if err := os.WriteFile(filepath.Join(dir, "state"), []byte(fmt.Sprint("before-kill seed=", seed)), 0o644); err != nil {
				return err
			}
			syscall.Kill(os.Getpid(), syscall.SIGKILL)
			select {}
		},
		run: func(w io.Writer, _ int64, dir string) (any, error) {
			b, err := os.ReadFile(filepath.Join(dir, "state"))
			fmt.Fprintf(w, "recovered %q\n", b)
			return 0, err
		},
	},
}

func runFakes(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	t.Setenv("TMPDIR", t.TempDir())
	var out, errOut bytes.Buffer
	code = run(fakeRegistry, args, &out, &errOut)
	if ents, err := os.ReadDir(os.TempDir()); err != nil || len(ents) != 0 {
		t.Errorf("runner left data directories behind: %v %v", ents, err)
	}
	return code, out.String(), errOut.String()
}

func TestRunnerPassesSeedsTwiceEach(t *testing.T) {
	code, out, errOut := runFakes(t, "fake")
	if code != 0 || out != "fake-pass seed=1\nfake-pass seed=2\n" || strings.Count(errOut, "(2 runs") != 2 {
		t.Fatalf("exit %d, stdout %q, stderr:\n%s", code, out, errOut)
	}
	code, out, _ = runFakes(t, "fake-pass", "-seed", "9")
	if code != 0 || out != "fake-pass seed=9\n" {
		t.Fatalf("-seed 9: exit %d, stdout %q", code, out)
	}
}

func TestRunnerNamesFailedInvariant(t *testing.T) {
	code, _, errOut := runFakes(t, "fake-pass", "-seed", "-3")
	if code != 1 || !strings.Contains(errOut, "fake-pass seed=-3: invariant seed-positive violated") ||
		!strings.Contains(errOut, "FAIL fake-pass seed=-3") {
		t.Fatalf("exit %d, stderr:\n%s", code, errOut)
	}
}

func TestRunnerRejectsDivergentReports(t *testing.T) {
	code, _, errOut := runFakes(t, "fake-diverge")
	if code != 1 || !strings.Contains(errOut, "FAIL fake-diverge seed=1: reports differ between two runs") {
		t.Fatalf("exit %d, stderr:\n%s", code, errOut)
	}
}

func TestRunnerRequiresCrashChildKilled(t *testing.T) {
	code, _, errOut := runFakes(t, "fake-crash-survives")
	if code != 1 || !strings.Contains(errOut, "want death by SIGKILL") {
		t.Fatalf("exit %d, stderr:\n%s", code, errOut)
	}
	code, out, errOut := runFakes(t, "fake-crash-recover")
	if code != 0 || out != "recovered \"before-kill seed=4\"\n" {
		t.Fatalf("exit %d, stdout %q, stderr:\n%s", code, out, errOut)
	}
}
