package network

import (
	"testing"
	"time"

	"repro/internal/core"
)

// TestTCPSwapCodecLiveStream is the swap-correctness acceptance test: a
// continuous message stream crosses two live codec swaps and a peer
// restart that lands mid-swap, and every frame arrives exactly once, in
// order. Frames enqueued before a swap drain as the codec that encoded
// them left them (mixed-codec queues are legal — payloads are
// self-describing), so the receiver needs no notice of either swap. The
// binary-encoded counter shows which codec each batch went out under; the
// process-wide counter is exact because only n1 encodes anything here.
func TestTCPSwapCodecLiveStream(t *testing.T) {
	_, n1, n2 := newTCPPair(t,
		WithKeepalive(25*time.Millisecond),
		WithBackoff(20*time.Millisecond, 100*time.Millisecond),
		WithDialAttempts(500),
	)

	send := func(lo, hi int) {
		for i := lo; i < hi; i++ {
			n1.ctx.Trigger(wireBlob{Header: NewHeader(n1.self, n2.self), Seq: i}, n1.port)
		}
	}

	binaryDelta := func(since uint64) uint64 { return gBinaryEncoded.Load() - since }
	// queued waits until n1 has encoded and queued its first n frames: a
	// trigger still waiting in n1's event queue when a swap lands is
	// encoded under the new codec.
	queued := func(n uint64) {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for sent, _, _, _ := n1.tcp.Stats(); sent < n; sent, _, _, _ = n1.tcp.Stats() {
			if time.Now().After(deadline) {
				t.Fatalf("n1 queued %d frames, want %d", sent, n)
			}
			time.Sleep(time.Millisecond)
		}
	}

	// Phase 1: the default binary codec.
	bin := gBinaryEncoded.Load()
	send(0, 30)
	waitCount(t, &n2.got, 30, 10*time.Second)
	if got := binaryDelta(bin); got != 30 {
		t.Fatalf("default codec encoded %d of 30 frames in binary", got)
	}

	// Phase 2: live swap to gob+zlib under traffic.
	bin = gBinaryEncoded.Load()
	if err := n1.tcp.SwapCodec("gob+zlib"); err != nil {
		t.Fatal(err)
	}
	send(30, 60)
	waitCount(t, &n2.got, 60, 10*time.Second)
	if got := binaryDelta(bin); got != 0 {
		t.Fatalf("%d binary frames encoded after the swap to gob+zlib", got)
	}

	// Phase 3: kill the peer, and while it is down queue frames AND swap
	// again — the mid-swap redial must re-handshake and deliver the queued
	// mixed-codec frames in order.
	n2.tcp.shutdown()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if st, ok := n1.tcp.PeerStates()[n2.self]; ok && st != PeerUp {
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	bin = gBinaryEncoded.Load()
	send(60, 70) // encoded gob+zlib, queued
	queued(70)
	if err := n1.tcp.SwapCodec("binary"); err != nil {
		t.Fatal(err)
	}
	send(70, 80) // encoded binary, queued behind the gob+zlib frames
	queued(80)
	if got := binaryDelta(bin); got != 10 {
		t.Fatalf("%d binary frames queued across the swap back, want the 10 sent after it", got)
	}

	n3 := &tcpNode{self: n2.self}
	rt2 := core.New(core.WithScheduler(core.NewWorkStealingScheduler(2)),
		core.WithFaultPolicy(core.LogAndContinue))
	defer rt2.Shutdown()
	rt2.MustBootstrap("Main", core.SetupFunc(func(ctx *core.Ctx) {
		ctx.Create("n3", n3)
	}))
	if !rt2.WaitQuiescence(5 * time.Second) {
		t.Fatal("no quiescence")
	}
	t.Cleanup(n3.tcp.shutdown)

	waitCount(t, &n3.got, 20, 15*time.Second)

	// Zero lost, zero reordered: n2 saw exactly 0..59 in order, n3 exactly
	// 60..79 in order.
	n2.mu.Lock()
	for i, m := range n2.msgs {
		if d, ok := m.(wireBlob); !ok || d.Seq != i {
			t.Errorf("pre-restart stream broken at %d: %+v", i, m)
		}
	}
	n2count := len(n2.msgs)
	n2.mu.Unlock()
	if n2count != 60 {
		t.Fatalf("pre-restart peer saw %d frames, want 60", n2count)
	}
	n3.mu.Lock()
	for i, m := range n3.msgs {
		if d, ok := m.(wireBlob); !ok || d.Seq != 60+i {
			t.Errorf("post-restart stream broken at %d: %+v", i, m)
		}
	}
	n3count := len(n3.msgs)
	n3.mu.Unlock()
	if n3count != 20 {
		t.Fatalf("post-restart peer saw %d frames, want 20", n3count)
	}

	if swaps := n1.tcp.CodecStats(); swaps != 2 {
		t.Fatalf("codec swap counter = %d, want 2", swaps)
	}

	// An unknown name is refused and leaves the codec as it was.
	if err := n1.tcp.SwapCodec("no-such-codec"); err == nil {
		t.Fatal("unknown codec accepted")
	}
	if swaps := n1.tcp.CodecStats(); swaps != 2 {
		t.Fatalf("codec swap counter = %d after a refused swap, want 2", swaps)
	}
	bin = gBinaryEncoded.Load()
	send(80, 81)
	waitCount(t, &n3.got, 21, 10*time.Second)
	if got := binaryDelta(bin); got != 1 {
		t.Fatal("a refused swap changed the codec")
	}
}
