package experiments

import "testing"

// TestCodecSwapCleanRun is the live-swap correctness gate: quorum traffic
// across per-node codec swaps and overlapping link flaps stays
// linearizable with zero lost acked writes and zero codec errors, while
// swaps actually happened and both wire formats crossed the emulated wire.
func TestCodecSwapCleanRun(t *testing.T) {
	res := CodecSwap(7)
	if !res.Linearizable {
		t.Errorf("history not linearizable (key %q)", res.NonLinearizableKey)
	}
	if res.LostAckedWrites != 0 {
		t.Errorf("lost %d acked writes", res.LostAckedWrites)
	}
	if res.CodecErrors != 0 {
		t.Errorf("%d codec round-trip errors", res.CodecErrors)
	}
	if res.CodecSwaps == 0 {
		t.Error("no codec swaps applied — scenario inert")
	}
	if res.BinaryFrames == 0 || res.GobFrames == 0 {
		t.Errorf("frame mix did not span both formats: binary=%d gob=%d",
			res.BinaryFrames, res.GobFrames)
	}
	if res.AckedPuts == 0 || res.OKGets == 0 {
		t.Errorf("workload inert: %d acked puts, %d ok gets", res.AckedPuts, res.OKGets)
	}
}
