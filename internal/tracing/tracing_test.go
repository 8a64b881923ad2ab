package tracing

import (
	"sync"
	"testing"
	"time"
)

func restoreSampling(t *testing.T) {
	t.Helper()
	prev := SampleEvery()
	t.Cleanup(func() { SetSampleEvery(prev) })
}

func TestSampling(t *testing.T) {
	restoreSampling(t)

	SetSampleEvery(64)
	if Sampled(1) || Sampled(63) || Sampled(65) {
		t.Fatal("off-mask sequence numbers must not sample at 1/64")
	}
	if !Sampled(64) || !Sampled(128) {
		t.Fatal("multiples of 64 must sample at 1/64")
	}

	SetSampleEvery(1)
	for n := uint64(1); n < 10; n++ {
		if !Sampled(n) {
			t.Fatalf("always-on sampling missed n=%d", n)
		}
	}

	SetSampleEvery(0)
	if Enabled() || Sampled(64) {
		t.Fatal("disabled tracing must sample nothing")
	}

	// Non-power-of-two periods round up.
	SetSampleEvery(100)
	if SampleEvery() != 128 {
		t.Fatalf("SampleEvery() = %d, want 128", SampleEvery())
	}
}

func TestIDSourceDeterministicAndUnique(t *testing.T) {
	a1 := NewIDSource("node-a", "abd")
	a2 := NewIDSource("node-a", "abd")
	b := NewIDSource("node-b", "abd")
	c := NewIDSource("node-a", "handoff")
	seen := map[uint64]bool{}
	for i := 0; i < 1000; i++ {
		x, y, z, w := a1.Next(), a2.Next(), b.Next(), c.Next()
		if x != y {
			t.Fatalf("same node+component+counter minted different IDs: %x vs %x", x, y)
		}
		if x == 0 || z == 0 || w == 0 {
			t.Fatal("minted a zero ID")
		}
		if seen[x] || seen[z] || seen[w] || x == z || x == w || z == w {
			t.Fatalf("duplicate ID minted at i=%d", i)
		}
		seen[x], seen[z], seen[w] = true, true, true
	}
}

func TestRingWrapAndSnapshotOrder(t *testing.T) {
	r := NewRing(16)
	for i := 0; i < 40; i++ {
		r.Record(Span{Trace: 1, ID: uint64(i + 1)})
	}
	if r.Len() != 16 {
		t.Fatalf("Len() = %d, want 16", r.Len())
	}
	snap := r.Snapshot()
	if len(snap) != 16 {
		t.Fatalf("snapshot holds %d spans, want 16", len(snap))
	}
	for i := 1; i < len(snap); i++ {
		if snap[i].Seq <= snap[i-1].Seq {
			t.Fatal("snapshot not ordered oldest-first by Seq")
		}
	}
	if snap[len(snap)-1].ID != 40 {
		t.Fatalf("newest span ID = %d, want 40", snap[len(snap)-1].ID)
	}
}

func TestRingConcurrentRecord(t *testing.T) {
	r := NewRing(128)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				r.Record(Span{Trace: uint64(g + 1), ID: uint64(i + 1)})
			}
		}(g)
	}
	wg.Wait()
	if got := r.Recorded(); got != 1600 {
		t.Fatalf("Recorded() = %d, want 1600", got)
	}
	r.Snapshot() // must not race or panic
}

func TestAssembleJoinsAcrossNodes(t *testing.T) {
	t0 := time.Unix(0, 0)
	spans := []Span{
		{Trace: 7, ID: 1, Node: "a", Name: "op", Key: "k", Outcome: "ok", Start: t0, End: t0.Add(10 * time.Millisecond)},
		{Trace: 7, ID: 2, Parent: 1, Node: "a", Name: "attempt", Start: t0, End: t0.Add(4 * time.Millisecond)},
		{Trace: 7, ID: 3, Parent: 1, Link: 2, Node: "a", Name: "attempt", Start: t0.Add(4 * time.Millisecond), End: t0.Add(10 * time.Millisecond)},
		{Trace: 7, ID: 4, Parent: 3, Node: "b", Name: "serve.read", Start: t0.Add(6 * time.Millisecond), End: t0.Add(6 * time.Millisecond)},
		{Trace: 9, ID: 5, Node: "c", Name: "handoff.round", Start: t0.Add(time.Millisecond), End: t0.Add(2 * time.Millisecond)},
		{Trace: 0, ID: 6, Node: "x", Name: "noise"},
	}
	tls := Assemble(spans)
	if len(tls) != 2 {
		t.Fatalf("assembled %d timelines, want 2", len(tls))
	}
	tl := tls[0]
	if tl.Trace != 7 || tl.Name != "op" || tl.Key != "k" || tl.Outcome != "ok" {
		t.Fatalf("root metadata not joined: %+v", tl)
	}
	if tl.Restarts != 1 {
		t.Fatalf("Restarts = %d, want 1", tl.Restarts)
	}
	if len(tl.Nodes) != 2 || tl.Nodes[0] != "a" || tl.Nodes[1] != "b" {
		t.Fatalf("Nodes = %v, want [a b]", tl.Nodes)
	}
	if tl.Duration != 10*time.Millisecond {
		t.Fatalf("Duration = %v, want 10ms", tl.Duration)
	}
	if !tl.HasPhase("serve.read") || tl.HasPhase("serve.write") {
		t.Fatal("HasPhase misreports")
	}

	SortSlowest(tls)
	if tls[0].Trace != 7 {
		t.Fatal("SortSlowest must put the 10ms trace first")
	}
}

func TestFormatParseID(t *testing.T) {
	id := uint64(0x0123456789abcdef)
	s := FormatID(id)
	if s != "0123456789abcdef" {
		t.Fatalf("FormatID = %q", s)
	}
	back, err := ParseID(s)
	if err != nil || back != id {
		t.Fatalf("ParseID(%q) = %x, %v", s, back, err)
	}
	if _, err := ParseID("zz"); err == nil {
		t.Fatal("ParseID must reject non-hex")
	}
}

func TestSwapDefault(t *testing.T) {
	fresh := NewRing(16)
	old := SwapDefault(fresh)
	defer SwapDefault(old)
	Record(Span{Trace: 1, ID: 1})
	if fresh.Len() != 1 {
		t.Fatal("Record must hit the swapped-in default ring")
	}
	if old.Len() != 0 && old == fresh {
		t.Fatal("old ring returned incorrectly")
	}
}
