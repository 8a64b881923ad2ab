// catssim is the one experiment driver: a registry of named scenarios over
// the same CATS system code, run either in deterministic simulation
// (virtual time, Figure 12 left) or in real time over the in-process
// loopback network (Figure 12 right). Only the injected transport, timer
// and scheduler differ between the two.
//
//	catssim list [name|attr]...
//	catssim run <name|attr>... [-seed N]
//
// Every entry has a name, attributes ("gate": CI runs it; "paper": it
// prints one section of EXPERIMENTS.md), default seeds, a run
// function that prints a report, and named invariants: Go predicates over
// the run's result. `catssim run gate` is the whole CI scenario gate.
//
// The runner executes every run as a fresh child process of this binary
// (`catssim child <crash|run> <name> <seed> <dir>`, the runner's own
// re-exec entry). A deterministic entry runs twice per seed and its two
// reports must be byte-identical; wall-clock values go to stderr, never
// into a compared report. The runner creates and removes each run's data
// directory, requires a crash child to die by SIGKILL, prints every report
// on stdout, and exits 1 naming the scenario, seed and failed invariant.
package main

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// entry is one registry scenario.
type entry struct {
	name  string
	attrs []string
	seeds []int64 // nil: the entry takes no seed and runs once
	doc   string

	// wallClock marks entries whose report depends on wall-clock time:
	// they run once per seed instead of twice with a byte comparison.
	wallClock bool
	// durable entries get a fresh data directory per run.
	durable bool
	// crash, when set, runs in its own child before run, over the same
	// data directory, and must not return: its scenario SIGKILLs the
	// process.
	crash func(seed int64, dir string) error
	// run executes the scenario, prints its report to w, and returns the
	// result the checks are evaluated over.
	run    func(w io.Writer, seed int64, dir string) (any, error)
	checks []check
}

// check is a named invariant over a scenario's result.
type check struct {
	name  string
	holds func(result any) bool
}

// inv declares an invariant over results of type R.
func inv[R any](name string, holds func(R) bool) check {
	return check{name, func(r any) bool { return holds(r.(R)) }}
}

func main() {
	os.Exit(dispatch(registry, os.Args[1:], os.Stdout, os.Stderr))
}

func dispatch(reg []*entry, args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 {
		switch args[0] {
		case "list":
			return list(reg, args[1:], stdout, stderr)
		case "run":
			return run(reg, args[1:], stdout, stderr)
		case "child":
			return child(reg, args[1:], stdout, stderr)
		}
	}
	fmt.Fprintln(stderr, "usage: catssim list [name|attr]...\n       catssim run <name|attr>... [-seed N]")
	return 2
}

// resolve expands names and attributes into entries, in argument order and
// then registry order, each entry once. No arguments select every entry.
func resolve(reg []*entry, targets []string) ([]*entry, error) {
	if len(targets) == 0 {
		return reg, nil
	}
	var out []*entry
	for _, t := range targets {
		matched := false
		for _, e := range reg {
			if e.name == t || slices.Contains(e.attrs, t) {
				matched = true
				if !slices.Contains(out, e) {
					out = append(out, e)
				}
			}
		}
		if !matched {
			return nil, fmt.Errorf("no scenario or attribute %q (see catssim list)", t)
		}
	}
	return out, nil
}

func list(reg []*entry, args []string, stdout, stderr io.Writer) int {
	entries, err := resolve(reg, args)
	if err != nil {
		fmt.Fprintln(stderr, "catssim:", err)
		return 2
	}
	for _, e := range entries {
		seeds := "-"
		if e.seeds != nil {
			s := make([]string, len(e.seeds))
			for i, v := range e.seeds {
				s[i] = strconv.FormatInt(v, 10)
			}
			seeds = strings.Join(s, ",")
		}
		fmt.Fprintf(stdout, "%-14s %-6s %-26s %s\n", e.name, strings.Join(e.attrs, ","), seeds, e.doc)
	}
	return 0
}

func run(reg []*entry, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("catssim run", flag.ContinueOnError)
	fs.SetOutput(stderr)
	seed := fs.Int64("seed", 0, "run only this seed instead of each entry's registered seeds")
	// Flags may follow the names: parse, take one positional, repeat.
	var targets []string
	for {
		if err := fs.Parse(args); err != nil {
			return 2
		}
		if fs.NArg() == 0 {
			break
		}
		targets = append(targets, fs.Arg(0))
		args = fs.Args()[1:]
	}
	seedSet := false
	fs.Visit(func(*flag.Flag) { seedSet = true })
	if len(targets) == 0 {
		fmt.Fprintln(stderr, "usage: catssim run <name|attr>... [-seed N]")
		return 2
	}
	entries, err := resolve(reg, targets)
	if err != nil {
		fmt.Fprintln(stderr, "catssim:", err)
		return 2
	}
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "catssim:", err)
		return 1
	}
	failed, total := 0, 0
	for _, e := range entries {
		seeds := e.seeds
		if seedSet {
			seeds = []int64{*seed}
		} else if seeds == nil {
			seeds = []int64{0}
		}
		for _, s := range seeds {
			total++
			if err := runSeed(exe, e, s, stdout, stderr); err != nil {
				failed++
				fmt.Fprintf(stderr, "catssim: FAIL %s seed=%d: %v\n", e.name, s, err)
			}
		}
	}
	if failed > 0 {
		fmt.Fprintf(stderr, "catssim: %d of %d scenario seeds failed\n", failed, total)
		return 1
	}
	return 0
}

// runSeed runs one (entry, seed) pair: twice with byte-identical reports
// for a deterministic entry, once for a wall-clock one. The first report
// is printed even when the run fails, so logs keep its counters.
func runSeed(exe string, e *entry, seed int64, stdout, stderr io.Writer) error {
	start := time.Now()
	runs := 2
	if e.wallClock {
		runs = 1
	}
	var first []byte
	for i := 1; i <= runs; i++ {
		out, err := runOnce(exe, e, seed, stderr)
		if i == 1 {
			first = out
			stdout.Write(out)
		}
		if err != nil {
			return fmt.Errorf("run %d: %w", i, err)
		}
		if i > 1 && !bytes.Equal(first, out) {
			return fmt.Errorf("reports differ between two runs at %s", firstDiff(first, out))
		}
	}
	fmt.Fprintf(stderr, "catssim: ok %s seed=%d (%d runs, %v)\n", e.name, seed, runs, time.Since(start).Round(time.Millisecond))
	return nil
}

// runOnce runs the entry's crash child, if any, then its run child, in a
// fresh data directory for durable entries, and returns the run's report.
func runOnce(exe string, e *entry, seed int64, stderr io.Writer) ([]byte, error) {
	dir := ""
	if e.durable {
		d, err := os.MkdirTemp("", "catssim-"+e.name+"-")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(d)
		dir = d
	}
	if e.crash != nil {
		err := spawn(exe, "crash", e, seed, dir, stderr, stderr)
		var exit *exec.ExitError
		if !errors.As(err, &exit) {
			return nil, fmt.Errorf("crash child: exited normally (%v), want death by SIGKILL", err)
		}
		if ws, ok := exit.Sys().(syscall.WaitStatus); !ok || !ws.Signaled() || ws.Signal() != syscall.SIGKILL {
			return nil, fmt.Errorf("crash child: %v, want death by SIGKILL", err)
		}
	}
	var out bytes.Buffer
	err := spawn(exe, "run", e, seed, dir, &out, stderr)
	return out.Bytes(), err
}

func spawn(exe, step string, e *entry, seed int64, dir string, stdout, stderr io.Writer) error {
	cmd := exec.Command(exe, "child", step, e.name, strconv.FormatInt(seed, 10), dir)
	cmd.Stdout, cmd.Stderr = stdout, stderr
	return cmd.Run()
}

// firstDiff locates the first line where two reports differ.
func firstDiff(a, b []byte) string {
	al, bl := strings.Split(string(a), "\n"), strings.Split(string(b), "\n")
	for i := 0; i < len(al) || i < len(bl); i++ {
		var x, y string
		if i < len(al) {
			x = al[i]
		}
		if i < len(bl) {
			y = bl[i]
		}
		if x != y {
			return fmt.Sprintf("line %d: %q vs %q", i+1, x, y)
		}
	}
	return "end of report"
}

// child runs one step of one entry in this process. A crash step must not
// return; a run step prints the report and fails on a violated invariant.
func child(reg []*entry, args []string, stdout, stderr io.Writer) int {
	if len(args) != 4 {
		fmt.Fprintln(stderr, "usage: catssim child <crash|run> <name> <seed> <dir>")
		return 2
	}
	step, name, dir := args[0], args[1], args[3]
	seed, err := strconv.ParseInt(args[2], 10, 64)
	i := slices.IndexFunc(reg, func(e *entry) bool { return e.name == name })
	if err != nil || i < 0 || (step == "crash" && reg[i].crash == nil) || (step != "crash" && step != "run") {
		fmt.Fprintf(stderr, "catssim child: bad arguments %q\n", args)
		return 2
	}
	e := reg[i]
	if step == "crash" {
		err := e.crash(seed, dir)
		fmt.Fprintf(stderr, "catssim: %s seed=%d: crash child survived: %v\n", name, seed, err)
		return 1
	}
	res, err := e.run(stdout, seed, dir)
	if err != nil {
		fmt.Fprintf(stderr, "catssim: %s seed=%d: %v\n", name, seed, err)
		return 1
	}
	code := 0
	for _, c := range e.checks {
		if !c.holds(res) {
			fmt.Fprintf(stderr, "catssim: %s seed=%d: invariant %s violated\n", name, seed, c.name)
			code = 1
		}
	}
	return code
}
