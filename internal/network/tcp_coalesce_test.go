package network

import (
	"encoding/binary"
	"io"
	"log/slog"
	"net"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/tracing"
)

// pipeReceiver attaches one end of a pipe to a running transport's real
// read loop, so what the test observes is the event stream on the
// receiver's Network port.
func pipeReceiver(t *testing.T, recv *TCP) net.Conn {
	t.Helper()
	near, far := net.Pipe()
	recv.wg.Add(1)
	go recv.readLoop(far)
	t.Cleanup(func() { _ = near.Close() }) // ends the read loop before recv shuts down
	return near
}

// teeConn records every byte written through it.
type teeConn struct {
	net.Conn
	written []byte
}

func (c *teeConn) Write(p []byte) (int, error) {
	c.written = append(c.written, p...)
	return c.Conn.Write(p)
}

// TestTCPFailedFlushRetransmitsInOrder is the event-stream test for the
// coalescing writer. Eight traced frames — the last four encoded under a
// different codec, so the codec changes in the middle of the buffer — go
// out in one flush, and the connection breaks half way through it. On the
// next connection the receiver must see all eight first, in FIFO order
// without a gap, then the four frames queued meanwhile; the bytes written
// are the handshake and then length-prefixed frames only, each payload
// naming its own codec; and each frame records exactly one net.send span,
// whose attempt count tells which flush delivered it.
func TestTCPFailedFlushRetransmitsInOrder(t *testing.T) {
	ring := swapRing(t, 256)
	_, _, recv := newTCPPair(t, noKeepalive)

	tr := NewTCP(Address{Host: "127.0.0.1", Port: 9})
	tr.keepalive, tr.writeTimeout = 0, 5*time.Second
	tr.log = slog.New(slog.NewTextHandler(io.Discard, nil))
	pc := &peerConn{
		addr:  recv.self,
		ch:    make(chan outFrame, 16),
		close: make(chan struct{}),
	}
	frame := func(seq int, codec WireCodec) outFrame {
		payload, err := codec.Encode(wireBlob{Header: NewHeader(tr.self, recv.self), Seq: seq, Data: make([]byte, 100)})
		if err != nil {
			t.Fatal(err)
		}
		return outFrame{payload: payload, trace: tracing.Context{TraceID: uint64(0x100 + seq), SpanID: 1}}
	}
	const failed, later = 8, 4
	// flagOf is the format flag frame seq carries: gob, then binary from
	// the middle of the failed flush, then gob again for the later frames.
	flagOf := func(seq int) byte {
		if seq >= failed/2 && seq < failed {
			return flagBinary
		}
		return flagPlain
	}
	for seq := 0; seq < failed; seq++ {
		codec := WireCodec(Codec{})
		if flagOf(seq) == flagBinary {
			codec = BinaryCodec{}
		}
		pc.ch <- frame(seq, codec)
	}

	before := GlobalMetrics()
	// Connection 1: the far end takes a frame and a half, then hangs up.
	c1, c2 := net.Pipe()
	go func() {
		_, _ = io.ReadFull(c2, make([]byte, 4+len(frame(0, Codec{}).payload)*3/2))
		_ = c2.Close()
	}()
	if err := tr.serveConn(pc, c1); err == nil {
		t.Fatal("serveConn returned nil after the connection broke")
	}
	_ = c1.Close()
	if len(pc.staged) != failed {
		t.Fatalf("%d frames staged after the failed flush, want all %d", len(pc.staged), failed)
	}
	for i := range pc.staged {
		if pc.staged[i].attempts != 1 || pc.staged[i].payload == nil {
			t.Fatalf("staged frame %d: attempts=%d released=%v", i, pc.staged[i].attempts, pc.staged[i].payload == nil)
		}
	}
	if got := GlobalMetrics().Requeued - before.Requeued; got != failed {
		t.Fatalf("requeued = %d, want %d", got, failed)
	}
	if spans := netSendSpans(ring, 0); len(spans) != 0 {
		t.Fatalf("frames of a failed flush recorded spans: %+v", spans)
	}

	// Connection 2, into the real read loop. Four gob frames wait behind
	// the staged ones: a second codec boundary.
	for seq := failed; seq < failed+later; seq++ {
		pc.ch <- frame(seq, Codec{})
	}
	c3 := &teeConn{Conn: pipeReceiver(t, recv.tcp)}
	if err := tr.writeHandshake(c3); err != nil {
		t.Fatal(err)
	}
	errCh := make(chan error, 1)
	go func() { errCh <- tr.serveConn(pc, c3) }()
	waitCount(t, &recv.got, failed+later, 5*time.Second)
	pc.shutdown()
	if err := <-errCh; err != errPeerClosed {
		t.Fatalf("serveConn: %v", err)
	}

	recv.mu.Lock()
	for i, m := range recv.msgs {
		if b, ok := m.(wireBlob); !ok || b.Seq != i {
			t.Errorf("receiver's event %d is %+v, want seq %d", i, m, i)
		}
	}
	recv.mu.Unlock()
	if got := recv.got.Load(); got != failed+later {
		t.Fatalf("receiver saw %d frames, want %d", got, failed+later)
	}

	// The raw stream: the 5-byte preamble, then nothing but length-prefixed
	// frames (keepalives are the one control prefix a writer may emit), in
	// order, each payload flagged with the codec that encoded it.
	w := c3.written
	if len(w) < handshakeLen || [4]byte(w[:4]) != handshakeMagic || w[4] != wireVersion {
		t.Fatalf("stream does not open with the handshake: % x", w[:min(len(w), handshakeLen)])
	}
	w = w[handshakeLen:]
	seq := 0
	for len(w) > 0 {
		if len(w) < 4 {
			t.Fatalf("%d trailing bytes after frame %d", len(w), seq)
		}
		n := binary.BigEndian.Uint32(w)
		w = w[4:]
		if n == keepaliveMagic {
			continue
		}
		if n == 0 || n > maxFrame || int(n) > len(w) {
			t.Fatalf("frame %d: bad length prefix %#x (%d bytes left)", seq, n, len(w))
		}
		payload := w[:n]
		w = w[n:]
		if payload[0] != flagOf(seq) {
			t.Errorf("frame %d: format flag %#x, want %#x", seq, payload[0], flagOf(seq))
		}
		m, err := DecodePayload(payload)
		if b, ok := m.(wireBlob); err != nil || !ok || b.Seq != seq {
			t.Errorf("frame %d on the wire decodes to %+v, %v", seq, m, err)
		}
		seq++
	}
	if seq != failed+later {
		t.Fatalf("stream carried %d frames, want %d", seq, failed+later)
	}

	spans := netSendSpans(ring, 0)
	if len(spans) != failed+later {
		t.Fatalf("%d net.send spans, want one per frame (%d): %+v", len(spans), failed+later, spans)
	}
	seen := map[uint64]bool{}
	for _, s := range spans {
		seq := int(s.Trace - 0x100)
		wantAttempt := 1
		if seq < failed {
			wantAttempt = 2
		}
		if seen[s.Trace] || s.Outcome != "ok" || s.Attempt != wantAttempt {
			t.Errorf("frame %d: span %+v (duplicate=%v), want one ok span with attempt %d", seq, s, seen[s.Trace], wantAttempt)
		}
		seen[s.Trace] = true
	}
}

// countNode is a transport under a subscriber that only counts.
type countNode struct {
	self Address
	tcp  *TCP
	got  atomic.Int64
}

func (n *countNode) Setup(ctx *core.Ctx) {
	n.tcp = NewTCP(n.self, noKeepalive)
	port := ctx.Create("net", n.tcp).Provided(PortType)
	core.Subscribe(ctx, port, func(Message) { n.got.Add(1) })
}

// mallocsPer runs send for each of total frames, waiting after every burst
// until done() has caught up, and returns the process-wide heap
// allocations per frame. Bursts are short so that the frames in flight
// never outnumber the encode buffers the warm-up left in the pool.
func mallocsPer(t *testing.T, total int, send func(), done func() int64) float64 {
	t.Helper()
	const burst = 100
	start := done()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for sent := 0; sent < total; sent += burst {
		for i := 0; i < burst; i++ {
			send()
		}
		deadline := time.Now().Add(10 * time.Second)
		for done() < start+int64(sent+burst) {
			if time.Now().After(deadline) {
				t.Fatalf("stalled at %d of %d frames", done()-start, total)
			}
			runtime.Gosched()
		}
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(total)
}

// TestTCPSteadyStateAllocs gates both socket loops over a real socket
// pair, 10 000 binary frames each way. The writer — encode into a pooled
// buffer, queue, coalesce, flush — allocates nothing per frame. The
// reader allocates exactly what the decoded message owns: its box and one
// copy per variable-length field (wireBlob has one), nothing for framing.
// The 0.1 slack absorbs pool refills after a GC cycle and the runtime's
// own background allocations.
func TestTCPSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	const frames = 10000
	node := &countNode{self: testTCPAddr(t)}
	rt := core.New(core.WithFaultPolicy(core.LogAndContinue))
	rt.MustBootstrap("Main", core.SetupFunc(func(ctx *core.Ctx) { ctx.Create("node", node) }))
	if !rt.WaitQuiescence(5 * time.Second) {
		t.Fatal("no quiescence")
	}
	t.Cleanup(func() { node.tcp.shutdown(); rt.Shutdown() })

	// Writer: the transport sends to a raw socket that counts and discards.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	sink := Address{Host: "127.0.0.1", Port: uint16(ln.Addr().(*net.TCPAddr).Port)}
	var m Message = wireBlob{Header: NewHeader(node.self, sink), Data: make([]byte, 256)}
	payload, err := BinaryCodec{}.Encode(m)
	if err != nil {
		t.Fatal(err)
	}
	var sunk atomic.Int64 // whole frames the sink has read
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		buf := make([]byte, 32<<10)
		read := int64(-handshakeLen)
		for {
			n, err := conn.Read(buf)
			if err != nil {
				return
			}
			read += int64(n)
			sunk.Store(read / int64(4+len(payload)))
		}
	}()
	send := func() { node.tcp.handleSend(m) }
	mallocsPer(t, 1000, send, sunk.Load) // warm-up: dial, pools, buffer growth
	if per := mallocsPer(t, frames, send, sunk.Load); per > 0.1 {
		t.Errorf("writer allocates %.2f per frame, want 0", per)
	}

	// Reader: a raw socket writes 100 frames per write to the transport.
	conn := dialRaw(t, node.self)
	defer conn.Close()
	var burst []byte
	for i := 0; i < 100; i++ {
		burst = AppendU32(burst, uint32(len(payload)))
		burst = append(burst, payload...)
	}
	n := 0
	write := func() {
		if n++; n%100 == 0 {
			if _, err := conn.Write(burst); err != nil {
				t.Error(err)
			}
		}
	}
	mallocsPer(t, 1000, write, node.got.Load)
	if per := mallocsPer(t, frames, write, node.got.Load); per > 2.1 {
		t.Errorf("reader allocates %.2f per frame, want 2 (message box + Data copy)", per)
	}
}
