package experiments

import "testing"

// TestChurnSurvivesChaos is the chaos gate: a simulated CATS cluster runs
// quorum puts/gets through crash-restart churn, link flaps, and a healed
// partition; the recorded history must stay linearizable and every
// acknowledged write must be observable once the faults heal.
func TestChurnSurvivesChaos(t *testing.T) {
	for _, seed := range []int64{3, 77, 4242} {
		r := Churn(seed, ChurnConfig{})
		if r.Crashes == 0 || r.Restarts != r.Crashes {
			t.Errorf("seed %d: churn not injected: crashes=%d restarts=%d", seed, r.Crashes, r.Restarts)
		}
		if r.ChurnDropped == 0 {
			t.Errorf("seed %d: churn dropped no messages — faults had no effect", seed)
		}
		if r.AckedPuts == 0 {
			t.Errorf("seed %d: no acknowledged writes; scenario proved nothing", seed)
		}
		if !r.Linearizable {
			t.Errorf("seed %d: history not linearizable (key %q)", seed, r.NonLinearizableKey)
		}
		if r.LostAckedWrites != 0 {
			t.Errorf("seed %d: %d keys lost acknowledged writes", seed, r.LostAckedWrites)
		}
		// Fault windows exceed the suspicion threshold, so groups must have
		// reconfigured: epochs advanced and handoff moved state. Zero here
		// means the scenario silently stopped exercising reconfiguration.
		if r.MaxEpoch == 0 {
			t.Errorf("seed %d: group epoch never advanced", seed)
		}
		if r.HandoffTransfers == 0 {
			t.Errorf("seed %d: no handoff sync rounds completed", seed)
		}
		if r.HandoffKeys == 0 {
			t.Errorf("seed %d: handoff transferred no keys despite eviction-length outages", seed)
		}
		t.Logf("seed %d: acked_puts=%d ok_gets=%d failed=%d/%d unresolved=%d churn_dropped=%d handoff_keys=%d handoff_transfers=%d max_epoch=%d",
			seed, r.AckedPuts, r.OKGets, r.FailedPuts, r.FailedGets, r.UnresolvedOps, r.ChurnDropped,
			r.HandoffKeys, r.HandoffTransfers, r.MaxEpoch)
	}
}
