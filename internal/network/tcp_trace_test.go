package network

import (
	"encoding/binary"
	"io"
	"log/slog"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/tracing"
)

// tracedData is a wire message carrying a trace context, the way ABD
// phase messages do: embedding tracing.Context makes it satisfy
// tracing.Traced so the transport annotates its frames.
type tracedData struct {
	Header
	tracing.Context
	Seq int
}

func init() { Register(tracedData{}) }

// swapRing installs a fresh span ring for the test and restores the
// previous one on cleanup.
func swapRing(t *testing.T, capacity int) *tracing.Ring {
	t.Helper()
	ring := tracing.NewRing(capacity)
	prev := tracing.SwapDefault(ring)
	t.Cleanup(func() { tracing.SwapDefault(prev) })
	return ring
}

// netSendSpans filters a ring snapshot down to the transport's spans,
// optionally to one trace.
func netSendSpans(ring *tracing.Ring, trace uint64) []tracing.Span {
	var out []tracing.Span
	for _, s := range ring.Snapshot() {
		if s.Name != "net.send" {
			continue
		}
		if trace != 0 && s.Trace != trace {
			continue
		}
		out = append(out, s)
	}
	return out
}

// frameReader consumes length-prefixed frames from one end of a pipe,
// counting keepalive probes and collecting real payloads.
type frameReader struct {
	conn       net.Conn
	payloads   chan []byte
	keepalives atomic.Int64
}

func (r *frameReader) run() {
	var hdr [4]byte
	for {
		if _, err := io.ReadFull(r.conn, hdr[:]); err != nil {
			return
		}
		n := binary.BigEndian.Uint32(hdr[:])
		if n == keepaliveMagic {
			r.keepalives.Add(1)
			continue
		}
		buf := make([]byte, n)
		if _, err := io.ReadFull(r.conn, buf); err != nil {
			return
		}
		r.payloads <- buf
	}
}

// TestTCPRetransmitFirstSingleSpan is the regression test for the
// transport span discipline: a traced frame caught in a failed flush is
// requeued and retransmitted FIRST on the next connection, and across that redial
// it records exactly one "net.send" span (on final delivery, with the
// attempt count showing the retry) — never one per write attempt.
// Keepalive probes, which share the write loop, record no spans at all.
func TestTCPRetransmitFirstSingleSpan(t *testing.T) {
	ring := swapRing(t, 256)

	tr := NewTCP(Address{Host: "127.0.0.1", Port: 9})
	tr.keepalive, tr.writeTimeout = 0, time.Second
	tr.log = slog.New(slog.NewTextHandler(io.Discard, nil))
	pc := &peerConn{
		addr:  Address{Host: "127.0.0.1", Port: 9},
		ch:    make(chan outFrame, 16),
		close: make(chan struct{}),
	}

	frameU := outFrame{payload: []byte("untraced")} // zero trace: must never span
	frameA := outFrame{payload: []byte("frame-A"), trace: tracing.Context{TraceID: 0xA1, SpanID: 0xA2}}
	frameB := outFrame{payload: []byte("frame-B"), trace: tracing.Context{TraceID: 0xB1, SpanID: 0xB2}}
	frameC := outFrame{payload: []byte("frame-C"), trace: tracing.Context{TraceID: 0xC1, SpanID: 0xC2}}

	before := GlobalMetrics()
	// Connection 1: the reader accepts two frames (U, A) then hangs up, so
	// the flush of B fails mid-conversation and B stays staged.
	c1, c2 := net.Pipe()
	reader1 := &frameReader{conn: c2, payloads: make(chan []byte, 16)}
	go reader1.run()
	errCh := make(chan error, 1)
	go func() { errCh <- tr.serveConn(pc, c1) }()
	pc.ch <- frameU
	pc.ch <- frameA
	for i := 0; i < 2; i++ {
		select {
		case <-reader1.payloads:
		case <-time.After(5 * time.Second):
			t.Fatal("frame never arrived on connection 1")
		}
	}
	_ = c2.Close()
	pc.ch <- frameB
	select {
	case err := <-errCh:
		if err == nil {
			t.Fatal("serveConn returned nil after broken pipe")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("serveConn did not notice the broken connection")
	}
	_ = c1.Close()

	if len(pc.staged) != 1 || string(pc.staged[0].payload) != "frame-B" {
		t.Fatalf("staged = %+v, want frame-B alone", pc.staged)
	}
	if pc.staged[0].attempts != 1 {
		t.Fatalf("staged attempts = %d, want 1", pc.staged[0].attempts)
	}
	if got := GlobalMetrics().Requeued - before.Requeued; got != 1 {
		t.Fatalf("requeued = %d, want 1", got)
	}
	if spans := netSendSpans(ring, 0); len(spans) != 1 || spans[0].Trace != 0xA1 {
		t.Fatalf("after connection 1: spans %+v, want exactly one for trace a1", spans)
	}
	if spans := netSendSpans(ring, 0xB1); len(spans) != 0 {
		t.Fatalf("requeued frame recorded a span before delivery: %+v", spans)
	}

	// Connection 2: C is already queued behind the staged B. The redial
	// must transmit B first, then C — and B's eventual span must be the
	// frame's only one.
	pc.ch <- frameC
	c3, c4 := net.Pipe()
	reader2 := &frameReader{conn: c4, payloads: make(chan []byte, 16)}
	go reader2.run()
	tr.keepalive = 10 * time.Millisecond
	go func() { errCh <- tr.serveConn(pc, c3) }()
	var order []string
	for i := 0; i < 2; i++ {
		select {
		case p := <-reader2.payloads:
			order = append(order, string(p))
		case <-time.After(5 * time.Second):
			t.Fatal("frame never arrived on connection 2")
		}
	}
	if order[0] != "frame-B" || order[1] != "frame-C" {
		t.Fatalf("retransmit-first ordering violated: %v", order)
	}

	// Let keepalives flow on the now-idle connection, then shut the peer.
	deadline := time.Now().Add(5 * time.Second)
	for reader2.keepalives.Load() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if reader2.keepalives.Load() == 0 {
		t.Fatal("no keepalive observed on idle connection")
	}
	pc.shutdown()
	select {
	case <-errCh:
	case <-time.After(5 * time.Second):
		t.Fatal("serveConn did not exit on peer close")
	}
	_ = c3.Close()
	_ = c4.Close()

	spans := netSendSpans(ring, 0)
	if len(spans) != 3 {
		t.Fatalf("got %d net.send spans, want 3 (one per traced frame): %+v", len(spans), spans)
	}
	perTrace := map[uint64]int{}
	for _, s := range spans {
		perTrace[s.Trace]++
		if s.Outcome != "ok" {
			t.Errorf("span for trace %x outcome %q, want ok", s.Trace, s.Outcome)
		}
	}
	for _, tr := range []uint64{0xA1, 0xB1, 0xC1} {
		if perTrace[tr] != 1 {
			t.Errorf("trace %x has %d net.send spans, want exactly 1", tr, perTrace[tr])
		}
	}
	b := netSendSpans(ring, 0xB1)
	if len(b) != 1 || b[0].Attempt != 2 {
		t.Fatalf("retransmitted frame span = %+v, want one span with attempt 2", b)
	}
	if b[0].Parent != 0xB2 {
		t.Fatalf("span parent = %x, want the frame's wire span b2", b[0].Parent)
	}
}

// TestTCPTracedFrameEndToEnd covers the handleSend path: a message
// embedding a sampled tracing.Context crosses a real socket pair and the
// sender's transport records exactly one parented net.send span for it,
// while idle keepalive traffic records none and the codec's traced-frame
// counter moves.
func TestTCPTracedFrameEndToEnd(t *testing.T) {
	ring := swapRing(t, 256)
	_, n1, n2 := newTCPPair(t, func(tr *TCP) { tr.keepalive = 15 * time.Millisecond })

	const trace, parent = 0xFACE, 0xF00D
	tracedBefore := GlobalMetrics().TracedFrames
	n1.ctx.Trigger(tracedData{
		Header:  NewHeader(n1.self, n2.self),
		Context: tracing.Context{TraceID: trace, SpanID: parent},
		Seq:     7,
	}, n1.port)
	waitCount(t, &n2.got, 1, 5*time.Second)

	var spans []tracing.Span
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if spans = netSendSpans(ring, trace); len(spans) > 0 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	if len(spans) != 1 {
		t.Fatalf("got %d net.send spans for the traced frame, want 1: %+v", len(spans), spans)
	}
	s := spans[0]
	if s.Parent != parent || s.Node != n1.self.String() || s.Outcome != "ok" || s.Attempt != 1 {
		t.Fatalf("span %+v, want parent=%x node=%s outcome=ok attempt=1", s, uint64(parent), n1.self)
	}
	if got := GlobalMetrics().TracedFrames; got < tracedBefore+1 {
		t.Fatalf("traced-frame counter did not move: %d -> %d", tracedBefore, got)
	}

	// Several keepalive periods of idle traffic must not add spans.
	time.Sleep(60 * time.Millisecond)
	if spans := netSendSpans(ring, trace); len(spans) != 1 {
		t.Fatalf("idle keepalives changed the frame's span count: %+v", spans)
	}

	// An untraced message must annotate nothing.
	n1.ctx.Trigger(hello{Header: NewHeader(n1.self, n2.self), Greeting: "plain"}, n1.port)
	waitCount(t, &n2.got, 2, 5*time.Second)
	time.Sleep(10 * time.Millisecond)
	for _, s := range netSendSpans(ring, 0) {
		if s.Trace != trace {
			t.Fatalf("untraced traffic recorded a span: %+v", s)
		}
	}
}
