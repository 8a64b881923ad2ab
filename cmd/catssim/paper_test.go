package main

import (
	"bytes"
	"regexp"
	"strings"
	"testing"
	"time"

	"repro/internal/cats"
	"repro/internal/experiments"
)

// tableLines returns the markdown table rows of a rendered section, header
// and separator included.
func tableLines(out string) []string {
	var rows []string
	for _, l := range strings.Split(out, "\n") {
		if strings.HasPrefix(l, "|") {
			rows = append(rows, l)
		}
	}
	return rows
}

var separator = regexp.MustCompile(`^\|(-+:?\|)+$`)

// TestPaperSectionsRender renders every paper section from fixed results:
// the title, the hardware line, then a table with its header, a separator,
// and one row per result, each row as wide as the header.
func TestPaperSectionsRender(t *testing.T) {
	table1 := []experiments.Table1Result{
		{Peers: 64, SimulatedDuration: time.Minute, WallDuration: time.Second, Compression: 60, DiscreteEvents: 1000, Allocs: 9000},
		{Peers: 128, SimulatedDuration: time.Minute, WallDuration: 3 * time.Second, Compression: 20, DiscreteEvents: 2000, Allocs: 18000},
		{Peers: 256, SimulatedDuration: time.Minute, WallDuration: 2 * time.Minute, Compression: 0.5, DiscreteEvents: 4000, Allocs: 36000},
	}
	latency := []experiments.LatencyResult{
		{Nodes: 8, Replication: 5, Codec: "binary", Ops: 10, Mean: 100 * time.Microsecond, P50: 90 * time.Microsecond, P99: 600 * time.Microsecond, SubMilli: 1},
		{Nodes: 8, Replication: 5, Codec: "gob", Ops: 10, Mean: time.Millisecond, P50: time.Millisecond, P99: 2 * time.Millisecond, SubMilli: 0.4},
	}
	scaling := []experiments.ScalingResult{
		{Nodes: 8, Ops: 80, ThroughputPS: 800, PerNodePS: 100},
		{Nodes: 16, Ops: 160, ThroughputPS: 1600, PerNodePS: 100},
	}
	one := []experiments.StealingResult{{Workers: 4, Batch: "one", Events: 40, EventsPerMS: 10, Steals: 30, Stolen: 30}}
	half := []experiments.StealingResult{{Workers: 4, Batch: "half", Events: 40, EventsPerMS: 12, Steals: 3, Stolen: 30}}

	for _, c := range []struct {
		name string
		s    section
		rows int
	}{
		{"local", localSection(1, cats.Metrics{Joins: 3, PutsOK: 1, GetsOK: 1}, 3, time.Second), 1},
		{"table1", table1Section(1, table1), len(table1)},
		{"latency", latencySection(latency), len(latency)},
		{"scaling", scalingSection(1, scaling), len(scaling)},
		{"stealing", stealingSection(one, half), 2},
	} {
		var b bytes.Buffer
		c.s.write(&b, "test-cpu")
		out := b.String()
		if !strings.HasPrefix(out, "\n## ") || !strings.Contains(out, "**Hardware:** test-cpu\n") {
			t.Errorf("%s: missing title or hardware line:\n%s", c.name, out)
		}
		lines := tableLines(out)
		if len(lines) != 2+c.rows {
			t.Errorf("%s: %d table lines, want header + separator + %d rows:\n%s", c.name, len(lines), c.rows, out)
			continue
		}
		cols := strings.Count(lines[0], "|")
		if !separator.MatchString(lines[1]) || strings.Count(lines[1], "|") != cols {
			t.Errorf("%s: bad separator %q under header %q", c.name, lines[1], lines[0])
		}
		for _, r := range lines[2:] {
			if strings.Count(r, "|") != cols {
				t.Errorf("%s: row %q is not as wide as header %q", c.name, r, lines[0])
			}
		}
		if !strings.Contains(out, "**Shape:**\n\n- ") {
			t.Errorf("%s: no shape lines:\n%s", c.name, out)
		}
	}
}

// TestPaperShapesReportViolations: a shape line reads what the rows say,
// so rows that break the paper's shape print "no".
func TestPaperShapesReportViolations(t *testing.T) {
	render := func(s section) string {
		var b bytes.Buffer
		s.write(&b, "test-cpu")
		return b.String()
	}

	rising := table1Section(1, []experiments.Table1Result{
		{Peers: 64, Compression: 10, DiscreteEvents: 1},
		{Peers: 128, Compression: 12, DiscreteEvents: 1},
	})
	if out := render(rising); !strings.Contains(out, "compression falls at every step in peers: no (10.00× → 12.00×)") ||
		!strings.Contains(out, "real time (1×) crossed: not within the measured rows") {
		t.Errorf("rising compression not reported:\n%s", out)
	}
	falling := table1Section(1, []experiments.Table1Result{
		{Peers: 64, Compression: 10, DiscreteEvents: 1},
		{Peers: 128, Compression: 0.8, DiscreteEvents: 1},
	})
	if out := render(falling); !strings.Contains(out, "falls at every step in peers: yes") ||
		!strings.Contains(out, "crossed: between 64 and 128 peers") {
		t.Errorf("falling compression misreported:\n%s", out)
	}

	sublinear := scalingSection(1, []experiments.ScalingResult{
		{Nodes: 8, ThroughputPS: 24000, PerNodePS: 3000},
		{Nodes: 96, ThroughputPS: 240000, PerNodePS: 2500},
	})
	if out := render(sublinear); !strings.Contains(out, "per-node throughput, 96 ÷ 8 nodes: 0.83×") ||
		!strings.Contains(out, "at every size): no (lowest 0.83×, at 96 nodes)") {
		t.Errorf("sub-linear scaling not reported:\n%s", out)
	}

	slowHalf := stealingSection(stealRuns("one", 12, 13, 14), stealRuns("half", 9, 10, 11))
	if out := render(slowHalf); !strings.Contains(out, "batch=half faster: no") {
		t.Errorf("slower batch=half not reported:\n%s", out)
	}
	fastHalf := stealingSection(stealRuns("one", 8, 10, 12), stealRuns("half", 13, 15, 17))
	if out := render(fastHalf); !strings.Contains(out, "batch=half faster: yes") ||
		!strings.Contains(out, "| 10 | 9–11 |") {
		t.Errorf("faster batch=half or its quartiles not reported:\n%s", out)
	}
	// Medians 10 and 12, but the ranges 8–12 and 11–13 overlap.
	noisy := stealingSection(stealRuns("one", 6, 8, 10, 12, 14), stealRuns("half", 10, 11, 12, 13, 15))
	if out := render(noisy); !strings.Contains(out, "batch=half faster: within noise") {
		t.Errorf("overlapping quartiles not reported as noise:\n%s", out)
	}

	slowBinary := latencySection([]experiments.LatencyResult{
		{Nodes: 8, Replication: 5, Codec: "binary", P50: 2 * time.Millisecond, Mean: 2 * time.Millisecond},
	})
	if out := render(slowBinary); !strings.Contains(out, "median under 1 ms with the shipped codec at replication 5: no") {
		t.Errorf("slow median not reported:\n%s", out)
	}
}

// stealRuns builds one C3 policy's runs with the given events/ms.
func stealRuns(batch string, perMS ...float64) []experiments.StealingResult {
	rs := make([]experiments.StealingResult, len(perMS))
	for i, v := range perMS {
		rs[i] = experiments.StealingResult{Batch: batch, EventsPerMS: v, Steals: 1, Stolen: 10}
	}
	return rs
}
