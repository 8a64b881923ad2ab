package experiments

import (
	"reflect"
	"testing"
)

// TestFaultScenariosDeterministic pins that each fault scenario — fault
// times, victims, workload, outcomes, trace timelines — replays identically
// from one seed, and that another seed moves its trace digest.
func TestFaultScenariosDeterministic(t *testing.T) {
	for _, tc := range []struct {
		name string
		seed int64
		run  func(seed int64) Result
	}{
		{"Churn", 7, func(seed int64) Result { return Churn(seed, ChurnConfig{}) }},
		{"Gray", 9, func(seed int64) Result { return Gray(seed) }},
		{"CodecSwap", 11, func(seed int64) Result { return CodecSwap(seed) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			a, b := tc.run(tc.seed), tc.run(tc.seed)
			if !reflect.DeepEqual(a, b) {
				t.Fatalf("same seed diverged:\n  run A: %+v\n  run B: %+v", a, b)
			}
			if c := tc.run(tc.seed + 2); c.TraceDigest == a.TraceDigest {
				t.Errorf("seeds %d and %d produced the same trace digest %016x", tc.seed, tc.seed+2, a.TraceDigest)
			}
		})
	}
}
