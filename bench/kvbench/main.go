// kvbench is the repository's benchmark: three key-value workloads on a
// three-node in-process CATS store and one deterministic-simulation
// workload, each reporting the end-to-end metrics named in BENCHMARK.json
// and, with -trace 1, a per-layer ledger. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"text/tabwriter"
)

func main() {
	os.Exit(realMain())
}

func realMain() int {
	cfg := defaultConfig()
	name := flag.String("workload", "all", "workload name, or all")
	flag.Int64Var(&cfg.seed, "seed", cfg.seed, "seed for every generated input")
	flag.Float64Var(&cfg.seconds, "seconds", cfg.seconds, "measured seconds per run")
	trace := flag.Int("trace", 0, "1: traced run, reports the per-layer metrics instead of the end-to-end ones")
	flag.StringVar(&cfg.outDir, "out", "", "directory for span files and -repeat sets (default: a temporary directory, removed on exit)")
	smoke := flag.Bool("smoke", false, "tiny sizes and one-second phases, to check that everything runs")
	repeat := flag.Int("repeat", 0, "run every workload this many times, one process and seed each, and write <out>/set.json")
	compare := flag.Bool("compare", false, "compare two -repeat sets: kvbench -compare A.json B.json")
	specPath := flag.String("spec", "BENCHMARK.json", "benchmark contract, read by -compare for the bounds")
	flag.Parse()
	if cfg.trace = *trace != 0; cfg.trace {
		cfg.setupRounds = 1 // a traced run does not report setup_s
	}
	if *smoke {
		cfg = cfg.smoke()
	}

	switch {
	case *compare:
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: kvbench -compare A.json B.json")
			return 2
		}
		return compareSets(os.Stdout, *specPath, flag.Arg(0), flag.Arg(1))
	case *repeat > 0:
		return repeatRuns(*name, cfg, *repeat)
	}

	var selected []workload
	if *name == "all" {
		selected = workloads
	} else if w, ok := workloadByName(*name); ok {
		selected = []workload{w}
	} else {
		fmt.Fprintf(os.Stderr, "kvbench: unknown workload %q\n", *name)
		return 2
	}
	if cfg.outDir != "" {
		if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, "kvbench:", err)
			return 1
		}
	}
	code := 0
	for _, w := range selected {
		res, err := runWorkload(w, cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "kvbench: %s: %v\n", w.name, err)
			return 1
		}
		printTable(os.Stderr, res)
		fmt.Println(driverLine(res))
		if !res.Correct {
			code = 1
		}
	}
	return code
}

func runWorkload(w workload, cfg config) (*result, error) {
	if w.sim {
		return runSim(w, cfg)
	}
	return runKV(w, cfg)
}

// driverLine is the one JSON object the driver reads: the end-to-end
// metrics of an untraced run, the per-layer metrics of a traced one.
func driverLine(res *result) string {
	defs, vals := endToEnd, res.EndToEnd
	if res.Trace {
		defs, vals = perLayer, res.PerLayer
	}
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool              `json:"correct"`
		Attempted uint64            `json:"attempted"`
		Failed    uint64            `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, map[string]metric{}}
	for _, d := range defs {
		out.Metrics[d.name] = metric{vals[d.name], d.unit}
	}
	b, err := json.Marshal(out)
	if err != nil {
		panic(err) // only numbers, strings and bools
	}
	return string(b)
}

// printTable prints every metric the run produced, by name with its unit.
func printTable(f *os.File, res *result) {
	tw := tabwriter.NewWriter(f, 0, 0, 2, ' ', 0)
	fmt.Fprintf(tw, "== %s  seed=%d trace=%v nproc=%d gomaxprocs=%d  attempted=%d failed=%d correct=%v\n",
		res.Workload, res.Seed, res.Trace, res.NProc, res.GoMaxProcs, res.Attempted, res.Failed, res.Correct)
	for _, e := range res.Errors {
		fmt.Fprintf(tw, "  error: %s\n", e)
	}
	for _, d := range endToEnd {
		fmt.Fprintf(tw, "  %s\t%.6g\t%s\n", d.name, res.EndToEnd[d.name], d.unit)
	}
	if res.Trace {
		defs := append([]metricDef(nil), perLayer...)
		sort.Slice(defs, func(i, j int) bool { return defs[i].name < defs[j].name })
		for _, d := range defs {
			fmt.Fprintf(tw, "  %s\t%.6g\t%s\n", d.name, res.PerLayer[d.name], d.unit)
		}
		if len(res.Ledger) > 0 {
			fmt.Fprintf(tw, "  -- latency-phase ledger (traced ops, median self time per span kind)\n")
			for _, row := range res.Ledger {
				fmt.Fprintf(tw, "  %s\t%.3f\tus\n", strings.Repeat(" ", 2)+row.Name, row.US)
			}
		}
	}
	_ = tw.Flush() // a diagnostic table on stderr
}
