package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"text/tabwriter"
)

// runSet is what -repeat writes and -compare reads: the end-to-end metrics
// of every run, one process and one seed each, exactly as the driver
// collects them.
type runSet struct {
	Seconds float64  `json:"seconds"`
	Runs    []setRun `json:"runs"`
}

type setRun struct {
	Workload string             `json:"workload"`
	Seed     int64              `json:"seed"`
	Metrics  map[string]float64 `json:"metrics"`
}

// benchSpec is the part of BENCHMARK.json that -compare needs.
type benchSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// repeatRuns runs every selected workload n times, each run a fresh process
// of this same binary with its own seed, and writes <out>/set.json.
func repeatRuns(name string, cfg config, n int) int {
	if cfg.outDir == "" {
		fmt.Fprintln(os.Stderr, "kvbench: -repeat needs -out")
		return 2
	}
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "kvbench:", err)
		return 1
	}
	selected := workloads
	if w, ok := workloadByName(name); ok {
		selected = []workload{w}
	}
	set := runSet{Seconds: cfg.seconds}
	for i := 0; i < n; i++ {
		for _, w := range selected {
			seed := cfg.seed + int64(i)
			cmd := exec.Command(self, "-workload", w.name, "-seed", strconv.FormatInt(seed, 10),
				"-seconds", strconv.FormatFloat(cfg.seconds, 'g', -1, 64), "-trace", "0")
			cmd.Stderr = io.Discard
			out, err := cmd.Output()
			if err != nil {
				fmt.Fprintf(os.Stderr, "kvbench: %s seed %d: %v\n", w.name, seed, err)
				return 1
			}
			lines := strings.Split(strings.TrimSpace(string(out)), "\n")
			var line struct {
				Metrics map[string]struct{ Value float64 } `json:"metrics"`
			}
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
				fmt.Fprintf(os.Stderr, "kvbench: %s seed %d: bad result line: %v\n", w.name, seed, err)
				return 1
			}
			run := setRun{Workload: w.name, Seed: seed, Metrics: map[string]float64{}}
			for k, v := range line.Metrics {
				run.Metrics[k] = v.Value
			}
			set.Runs = append(set.Runs, run)
			fmt.Fprintf(os.Stderr, "run %d/%d %s seed %d done\n", i+1, n, w.name, seed)
		}
	}
	b, err := json.MarshalIndent(set, "", " ")
	if err == nil {
		if err = os.MkdirAll(cfg.outDir, 0o755); err == nil {
			err = os.WriteFile(filepath.Join(cfg.outDir, "set.json"), b, 0o644)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "kvbench:", err)
		return 1
	}
	return 0
}

func loadJSON(path string, v any) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(b, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// verdict is one workload × metric row of a comparison.
type verdict struct {
	workload, metric, unit string
	a, b                   [3]float64 // Q1, median, Q3
	worse                  float64    // share of A's median by which B is worse (negative: better)
	bound                  float64
	status                 string
}

// judge compares B with A on one metric. A spread (Q3−Q1 over the median)
// wider than the bound on either side means the runs cannot resolve a
// change of that size: the verdict is unresolved, never ok. setup_s is
// exempt from that rule, as it is in the driver: it is a median of only a
// few set-ups per run.
func judge(a, b []float64, better string, bound float64, checkSpread bool) verdict {
	v := verdict{bound: bound, status: "ok"}
	v.a[0], v.a[1], v.a[2] = quartiles(a)
	v.b[0], v.b[1], v.b[2] = quartiles(b)
	v.worse = ratio(v.b[1]-v.a[1], v.a[1])
	if better == "higher" {
		v.worse = -v.worse
	}
	spread := func(q [3]float64) float64 { return ratio(q[2]-q[0], q[1]) }
	switch {
	case checkSpread && (spread(v.a) > bound || spread(v.b) > bound):
		v.status = "unresolved"
	case v.worse > bound:
		v.status = "regress"
	}
	return v
}

// compareSets prints, per workload and end-to-end metric, both sets'
// medians and quartiles, B's change against A as a share of A's median,
// the metric's bound, and the verdict. It returns 1 unless every row is ok.
func compareSets(out io.Writer, specPath, pathA, pathB string) int {
	var spec benchSpec
	var a, b runSet
	for path, v := range map[string]any{specPath: &spec, pathA: &a, pathB: &b} {
		if err := loadJSON(path, v); err != nil {
			fmt.Fprintln(os.Stderr, "kvbench:", err)
			return 2
		}
	}
	values := func(s runSet, workload, metric string) []float64 {
		var xs []float64
		for _, r := range s.Runs {
			if v, ok := r.Metrics[metric]; ok && r.Workload == workload {
				xs = append(xs, v)
			}
		}
		return xs
	}
	code := 0
	tw := tabwriter.NewWriter(out, 0, 0, 2, ' ', 0)
	fmt.Fprintf(tw, "workload\tmetric\tunit\tA median [Q1, Q3] (n)\tB median [Q1, Q3] (n)\tB worse than A by (base: A median)\tbound\tverdict\n")
	for _, w := range workloads {
		for _, m := range spec.EndToEnd {
			xa, xb := values(a, w.name, m.Name), values(b, w.name, m.Name)
			if len(xa) == 0 || len(xb) == 0 {
				continue
			}
			v := judge(xa, xb, m.Better, m.Bound, m.Name != "setup_s")
			if v.status != "ok" {
				code = 1
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%.5g [%.5g, %.5g] (%d)\t%.5g [%.5g, %.5g] (%d)\t%+.1f%% of %.5g\t%.0f%%\t%s\n",
				w.name, m.Name, m.Unit, v.a[1], v.a[0], v.a[2], len(xa), v.b[1], v.b[0], v.b[2], len(xb),
				100*v.worse, v.a[1], 100*m.Bound, v.status)
		}
	}
	if err := tw.Flush(); err != nil {
		fmt.Fprintln(os.Stderr, "kvbench:", err)
		return 1
	}
	return code
}
