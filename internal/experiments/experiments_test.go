package experiments

import (
	"testing"
	"time"
)

func TestTable1SmallRun(t *testing.T) {
	if testing.Short() {
		t.Skip("macro experiment")
	}
	r := Table1(1, 32, 5*time.Second)
	if r.Peers != 32 {
		t.Fatalf("peers %d", r.Peers)
	}
	if r.SimulatedDuration != 5*time.Second {
		t.Fatalf("simulated %v, want 5s", r.SimulatedDuration)
	}
	if r.Compression <= 0 {
		t.Fatalf("compression %f", r.Compression)
	}
	if r.DiscreteEvents == 0 || r.HandlerExecutions == 0 {
		t.Fatalf("no events executed: %+v", r)
	}
	if r.Allocs == 0 {
		t.Fatalf("no heap allocations counted over the run: %+v", r)
	}
}

func TestTable1CompressionDecreasesWithPeers(t *testing.T) {
	if testing.Short() {
		t.Skip("macro experiment")
	}
	small := Table1(1, 16, 5*time.Second)
	large := Table1(1, 64, 5*time.Second)
	// The defining shape of Table 1: more peers → more events per simulated
	// second → lower compression.
	if large.Compression >= small.Compression {
		t.Fatalf("compression did not decrease: %d peers → %.2fx, %d peers → %.2fx",
			small.Peers, small.Compression, large.Peers, large.Compression)
	}
}

func TestScalingSmallRun(t *testing.T) {
	if testing.Short() {
		t.Skip("macro experiment")
	}
	r := Scaling(1, 8, 4, 50)
	if r.Ops != 8*50 {
		t.Fatalf("ops %d, want %d", r.Ops, 8*50)
	}
	if r.Failed != 0 {
		t.Fatalf("%d ops failed", r.Failed)
	}
	if r.ThroughputPS <= 0 || r.PerNodePS <= 0 {
		t.Fatalf("throughput not measured: %+v", r)
	}
}

func TestStealingBothPolicies(t *testing.T) {
	if testing.Short() {
		t.Skip("macro experiment")
	}
	one := Stealing(4, 64, 50, false)
	half := Stealing(4, 64, 50, true)
	// Whether and how often the workers steal depends on goroutine timing;
	// the exact steal-operation counts per policy are pinned single-threaded
	// by TestStealBatchPolicyOpCounts in internal/core.
	if one.Events != 64*50 || half.Events != 64*50 {
		t.Fatalf("event counts: %d %d", one.Events, half.Events)
	}
}

func TestLatencySmallRun(t *testing.T) {
	if testing.Short() {
		t.Skip("macro experiment")
	}
	r, err := Latency(5, 3, 256, 100, "binary")
	if err != nil {
		t.Fatal(err)
	}
	if r.Ops != 100 {
		t.Fatalf("%d ops measured, want 100", r.Ops)
	}
	if r.Mean <= 0 || r.P99 < r.P50 {
		t.Fatalf("latency stats inconsistent: %+v", r)
	}
}
