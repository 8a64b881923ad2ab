package experiments

import (
	"reflect"
	"testing"
)

// TestGraySurvivesStragglers is the gray-failure gate: straggler pulses and
// a same-instant burst must leave the history linearizable with zero lost
// acked writes, AND the resilience machinery must demonstrably engage —
// hedges fired, with wins.
func TestGraySurvivesStragglers(t *testing.T) {
	for _, seed := range []int64{3, 77, 4242} {
		r := Gray(seed)
		if r.SlowWindows == 0 || r.SlowDelayed == 0 {
			t.Errorf("seed %d: gray faults not injected: windows=%d delayed=%d", seed, r.SlowWindows, r.SlowDelayed)
		}
		if r.AckedPuts == 0 {
			t.Errorf("seed %d: no acknowledged writes; scenario proved nothing", seed)
		}
		if !r.Linearizable {
			t.Errorf("seed %d: history not linearizable (key %q)", seed, r.NonLinearizableKey)
		}
		if r.LostAckedWrites != 0 {
			t.Errorf("seed %d: %d keys lost acknowledged writes (%v)", seed, r.LostAckedWrites, r.LostKeys)
		}
		if r.Hedges == 0 {
			t.Errorf("seed %d: no hedges fired — straggler pulses had no effect", seed)
		}
		if r.HedgeWins == 0 {
			t.Errorf("seed %d: hedges fired but never won a race", seed)
		}
		t.Logf("seed %d: acked_puts=%d ok_gets=%d failed=%d/%d unresolved=%d hedges=%d wins=%d retries=%d slow_hints=%d delayed=%d",
			seed, r.AckedPuts, r.OKGets, r.FailedPuts, r.FailedGets, r.UnresolvedOps,
			r.Hedges, r.HedgeWins, r.Retries, r.SlowHints, r.SlowDelayed)
	}
}

// TestGrayDeterministic pins that the gray scenario — pulse times, burst
// outcomes, hedge counts, trace digest — replays identically from one
// seed. (Counter deltas make the process-wide metrics comparable across
// runs.)
func TestGrayDeterministic(t *testing.T) {
	a := Gray(9)
	b := Gray(9)
	a.Timelines, b.Timelines = nil, nil // digest covers them
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed diverged:\n  run A: %+v\n  run B: %+v", a, b)
	}
}

// TestHedgeBenchImproves pins the A/B result: with a gray-failing replica,
// hedging must strictly shorten the p99 tail, and the improvement must come
// from actual hedges (inert-gate detection).
func TestHedgeBenchImproves(t *testing.T) {
	r := HedgeBench(5)
	if r.Off.Ops == 0 || r.On.Ops == 0 {
		t.Fatalf("arm produced no measured ops: off=%d on=%d", r.Off.Ops, r.On.Ops)
	}
	if r.Off.Failed > 0 || r.On.Failed > 0 {
		t.Errorf("measured ops failed: off=%d on=%d", r.Off.Failed, r.On.Failed)
	}
	if r.Hedges == 0 {
		t.Fatalf("hedging arm fired no hedges — benchmark is inert")
	}
	if r.On.P99 >= r.Off.P99 {
		t.Errorf("hedging did not improve p99: off=%v on=%v", r.Off.P99, r.On.P99)
	}
	t.Logf("off: p50=%v p99=%v max=%v | on: p50=%v p99=%v max=%v | hedges=%d wins=%d improvement=%.1fx",
		r.Off.P50, r.Off.P99, r.Off.Max, r.On.P50, r.On.P99, r.On.Max,
		r.Hedges, r.HedgeWins, r.P99Improvement)
}
