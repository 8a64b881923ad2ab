package experiments

import (
	"reflect"
	"testing"
)

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

// TestCodecSwapDeterministic pins the two-run byte-identical property the
// codecswap gate entry compares: same seed, same result, including the codec
// counters and the trace digest.
func TestCodecSwapDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the scenario twice")
	}
	a := CodecSwap(11)
	b := CodecSwap(11)
	if !reflect.DeepEqual(a, b) {
		t.Errorf("same-seed runs diverge:\n a: %+v\n b: %+v", a, b)
	}
	c := CodecSwap(13)
	if c.TraceDigest == a.TraceDigest {
		t.Error("different seeds produced identical trace digests")
	}
}
