package network

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/tracing"
)

// sendQueueLen bounds the per-peer outbound queue. Handlers must never
// block, so an overflowing queue drops the newest message (the Network
// abstraction is fair-lossy; protocols above it retransmit).
const sendQueueLen = 4096

// dialTimeout bounds one connection-establishment attempt to a peer.
const dialTimeout = 3 * time.Second

// ioBufSize sizes both socket loops: the writer flushes once its buffer
// holds this many bytes (or the peer queue runs empty, whichever comes
// first), and every inbound connection reads through one buffered reader
// of this size. 64 KiB holds two to six coalesced ABD batch frames — the
// largest frames steady-state traffic produces — so under load one write
// and one read syscall carry several frames, and an idle link still
// flushes every frame the moment it is queued. A constant, not an option:
// nothing in the repository needs a second value.
const ioBufSize = 64 << 10

// Resilience defaults: the initial values of the TCP fields they name (the
// idle timeout has no field: see idleReader).
const (
	defaultKeepalive    = 10 * time.Second
	defaultIdleTimeout  = 45 * time.Second
	defaultWriteTimeout = 10 * time.Second
	defaultBackoffBase  = 100 * time.Millisecond
	defaultBackoffMax   = 5 * time.Second
	defaultDialAttempts = 8
)

// TCP is the production Network provider: a from-scratch equivalent of the
// paper's pluggable NIO frameworks (Grizzly/Netty/MINA) built on net. It
// performs automatic connection management (dial on demand, reuse,
// reconnect with capped exponential backoff, teardown on error) and
// message serialization through one WireCodec chosen at construction — the
// binary codec by default (every node-to-node message type has a wire
// encoding; gob is the tagged fallback for anything else), gob or gob+zlib
// by option.
//
// Wire format: a 5-byte handshake (magic, version), then frames — 4-byte
// big-endian length prefix + self-describing codec payload — interleaved
// with keepalives (see framing.go). The payload's format flag is its only
// codec identity: the stream carries no codec announcements, so a receiver
// decodes frames from peers booted with any codec. Outbound connections
// are used for sending only; peers dial back for their own sends, so each
// direction has a dedicated connection.
//
// Both socket loops work a buffer at a time, not a frame at a time. The
// writer copies length prefix and payload of each queued frame into one
// buffer and keeps draining the peer queue into it; it flushes — one
// deadline update, one write — only when the queue is empty or the buffer
// holds ioBufSize bytes. A frame is released, and its net.send span
// recorded, only after the flush that carried it returned; when a flush
// fails every frame in it is retransmitted first, in order, on the next
// connection (at-least-once: frames of a partially written flush may
// arrive twice). The reader sits behind one ioBufSize buffered reader and
// decodes out of one reusable frame buffer, which is safe because decoded
// messages own their memory (see DecodePayload).
//
// Each outbound peer is managed by a small circuit-breaker state machine
// (connecting → up → backoff → … → down). The pending send queue belongs
// to the peer, not the connection: frames queued while a connection is
// broken survive the redial and flow once it heals. Only when the retry
// budget is exhausted is the peer retired and its queue drained (counted
// in the abandoned counter); the next send starts a fresh manager, so
// unreachable peers are re-probed on demand forever. Up/Down transitions
// are published as PeerStatus indications on the Network port.
type TCP struct {
	self Address
	log  *slog.Logger

	codec WireCodec // encodes every outbound frame

	// Resilience settings, set from the defaults above in NewTCP; only this
	// package's tests change them.
	keepalive    time.Duration // idle keepalive probe period (0: no probes)
	writeTimeout time.Duration // bounds one flush (0: none); unwedges a writer stalled on a dead peer
	backoffBase  time.Duration // reconnect backoff: doubles per failure up to backoffMax, ±50% jitter
	backoffMax   time.Duration
	dialAttempts int // consecutive dial failures that retire a peer and abandon its queue
	queueLen     int // per-peer outbound queue capacity

	ctx  *core.Ctx
	port *core.Port
	ids  *tracing.IDSource

	mu      sync.Mutex
	ln      net.Listener
	conns   map[Address]*peerConn
	inbound map[net.Conn]struct{}
	stopped bool
	wg      sync.WaitGroup
}

// frameBuf is a pooled encode buffer: handleSend encodes each outbound
// frame into one, and the frame's final resolution (written, dropped, or
// abandoned) releases it. Steady state, the encode path allocates nothing.
type frameBuf struct{ b []byte }

var frameBufPool = sync.Pool{New: func() any { return new(frameBuf) }}

// maxPooledFrame bounds the capacity a released buffer may keep; one huge
// handoff chunk must not pin megabytes in the pool forever.
const maxPooledFrame = 64 << 10

func releaseFrame(f *outFrame) {
	fb := f.buf
	if fb == nil {
		return
	}
	f.buf = nil
	f.payload = nil
	if cap(fb.b) > maxPooledFrame {
		return
	}
	frameBufPool.Put(fb)
}

// outFrame is one queued outbound frame: the encoded payload plus the
// trace context of the message it carries. The transport records at most
// ONE "net.send" span per frame, at its final resolution (delivered or
// abandoned) — never per write attempt. `spanned` enforces that: a frame
// preserved across a failed flush (requeued, retransmitted first on the
// next connection) must not grow a second span on redial. Keepalives are
// bare length prefixes serveConn puts in the write buffer itself; they
// never become outFrames and so can never carry or inherit span
// annotations.
type outFrame struct {
	payload  []byte
	buf      *frameBuf // pooled backing buffer; released at final resolution
	trace    tracing.Context
	attempts int  // flushes that carried it so far; >1 means the frame crossed a redial
	spanned  bool // the frame's single transport span has been recorded
}

// peerConn is one outbound peer: its send queue and the connection
// manager goroutine that owns dialing, backoff, and writing.
type peerConn struct {
	addr  Address
	ch    chan outFrame
	close chan struct{}
	once  sync.Once
	state atomic.Int32 // PeerState; gauge updates go through TCP.setState

	// Writer state, touched only by the peer's writeLoop goroutine. wbuf is
	// what the next flush writes; staged are the frames whose bytes are in
	// it. Both outlive the connection: after a failed flush staged holds
	// the frames the next connection must transmit first.
	wbuf   []byte
	staged []outFrame
}

func (p *peerConn) shutdown() { p.once.Do(func() { close(p.close) }) }

// TCPOption configures a TCP transport.
type TCPOption func(*TCP)

// WithWireCodecName selects the wire-codec backend by registry name
// ("gob", "gob+zlib", "binary"). An unknown name panics in NewTCP: callers
// taking the name from a user validate it first (catsnode's -wire-codec).
func WithWireCodecName(name string) TCPOption {
	return func(t *TCP) {
		c, ok := CodecByName(name)
		if !ok {
			panic(fmt.Sprintf("network: unknown wire codec %q (registered: %v)", name, CodecNames()))
		}
		t.codec = c
	}
}

// NewTCP creates a TCP transport component bound to self.
func NewTCP(self Address, opts ...TCPOption) *TCP {
	t := &TCP{
		self:         self,
		conns:        make(map[Address]*peerConn),
		inbound:      make(map[net.Conn]struct{}),
		keepalive:    defaultKeepalive,
		writeTimeout: defaultWriteTimeout,
		backoffBase:  defaultBackoffBase,
		backoffMax:   defaultBackoffMax,
		dialAttempts: defaultDialAttempts,
		queueLen:     sendQueueLen,
		ids:          tracing.NewIDSource(self.String(), "net"),
		codec:        BinaryCodec{},
	}
	for _, o := range opts {
		o(t)
	}
	return t
}

var _ core.Definition = (*TCP)(nil)

// Setup declares the provided Network port; the listener starts on Start.
func (t *TCP) Setup(ctx *core.Ctx) {
	t.ctx = ctx
	t.log = ctx.Log()
	t.port = ctx.Provides(PortType)
	core.Subscribe(ctx, t.port, t.handleSend)
	core.Subscribe(ctx, ctx.Control(), func(core.Start) {
		if err := t.listen(); err != nil {
			panic(fmt.Errorf("network: tcp listen on %s: %w", t.self, err))
		}
	})
	core.Subscribe(ctx, ctx.Control(), func(core.Stop) { t.shutdown() })
}

// Self returns the local address.
func (t *TCP) Self() Address { return t.self }

// PeerStates snapshots the circuit-breaker state of every live outbound
// peer.
func (t *TCP) PeerStates() map[Address]PeerState {
	t.mu.Lock()
	defer t.mu.Unlock()
	m := make(map[Address]PeerState, len(t.conns))
	for a, pc := range t.conns {
		m[a] = PeerState(pc.state.Load())
	}
	return m
}

// listen binds the listener and starts the accept loop.
func (t *TCP) listen() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.stopped || t.ln != nil {
		return nil
	}
	ln, err := net.Listen("tcp", t.self.String())
	if err != nil {
		return err
	}
	t.ln = ln
	t.wg.Add(1)
	go t.acceptLoop(ln)
	return nil
}

// shutdown closes the listener and all connections and waits for the
// transport goroutines.
func (t *TCP) shutdown() {
	t.mu.Lock()
	if t.stopped {
		t.mu.Unlock()
		return
	}
	t.stopped = true
	ln := t.ln
	t.ln = nil
	conns := make([]*peerConn, 0, len(t.conns))
	for _, pc := range t.conns {
		conns = append(conns, pc)
	}
	inbound := make([]net.Conn, 0, len(t.inbound))
	for c := range t.inbound {
		inbound = append(inbound, c)
	}
	t.inbound = make(map[net.Conn]struct{})
	t.mu.Unlock()

	if ln != nil {
		_ = ln.Close()
	}
	for _, pc := range conns {
		pc.shutdown()
	}
	// Close accepted connections too: readers block in ReadFull and would
	// otherwise keep wg.Wait from returning.
	for _, c := range inbound {
		_ = c.Close()
	}
	t.wg.Wait()
}

// handleSend routes an outbound message onto the peer's connection queue,
// dialing on demand. Messages to self are delivered directly. The frame is
// encoded here, into a pooled buffer, so the bytes on the queue are
// immutable from this point on.
func (t *TCP) handleSend(m Message) {
	if m.Destination() == t.self {
		gReceived.Add(1)
		core.TriggerOn(t.port, m) //nolint:errcheck // port type validated at Setup
		return
	}
	fb := frameBufPool.Get().(*frameBuf)
	payload, err := t.codec.EncodeAppend(fb.b[:0], m)
	fb.b = payload[:0]
	if err != nil {
		frameBufPool.Put(fb)
		gSendErrors.Add(1)
		t.log.Warn("tcp: encode failed", "type", fmt.Sprintf("%T", m), "err", err)
		return
	}
	var tc tracing.Context
	if tm, ok := m.(tracing.Traced); ok {
		tc = tm.TraceContext()
	}
	t.enqueue(m.Destination(), outFrame{payload: payload, buf: fb, trace: tc})
}

// enqueue places one encoded frame on dst's queue, creating the peer's
// connection manager on first use. Lookup and push happen under the
// transport lock so a frame can never slip onto a queue after its manager
// has drained it: retirement also removes the peer under the lock, and a
// later send simply starts a fresh manager.
func (t *TCP) enqueue(dst Address, f outFrame) {
	t.mu.Lock()
	if t.stopped {
		t.mu.Unlock()
		releaseFrame(&f)
		return
	}
	pc, ok := t.conns[dst]
	if !ok {
		pc = &peerConn{
			addr:  dst,
			ch:    make(chan outFrame, t.queueLen),
			close: make(chan struct{}),
		}
		pc.state.Store(int32(PeerConnecting))
		peerGaugeAdd(PeerConnecting, 1)
		t.conns[dst] = pc
		t.wg.Add(1)
		go t.writeLoop(pc)
	}
	select {
	case pc.ch <- f:
		t.mu.Unlock()
		gSent.Add(1)
	default:
		t.mu.Unlock()
		releaseFrame(&f)
		gDroppedFull.Add(1)
	}
}

// setState transitions a peer's circuit-breaker state, keeping the
// process-wide per-state gauge in step.
func (t *TCP) setState(pc *peerConn, s PeerState) {
	old := PeerState(pc.state.Swap(int32(s)))
	if old != s {
		peerGaugeAdd(old, -1)
		peerGaugeAdd(s, 1)
	}
}

// retirePeer removes the peer from the routing map (under the lock, so no
// new frame can be queued afterwards) and releases its gauge bucket. The
// queue is drained by the caller after this returns.
func (t *TCP) retirePeer(pc *peerConn) {
	t.mu.Lock()
	if t.conns[pc.addr] == pc {
		delete(t.conns, pc.addr)
	}
	t.mu.Unlock()
	pc.shutdown()
	peerGaugeAdd(PeerState(pc.state.Load()), -1)
}

// abandonQueue resolves every frame a retired peer still holds — the
// staged frames of a failed flush, then whatever is queued — and counts
// them. Called after retirePeer, so nothing can race new frames in: the
// silent-loss hole this replaces stranded up to a full queue with no
// counter.
func (t *TCP) abandonQueue(pc *peerConn) {
	n := uint64(len(pc.staged))
	for i := range pc.staged {
		t.recordSendSpan(&pc.staged[i], "abandoned")
		releaseFrame(&pc.staged[i])
	}
	pc.staged, pc.wbuf = nil, nil
	for {
		select {
		case f := <-pc.ch:
			n++
			t.recordSendSpan(&f, "abandoned")
			releaseFrame(&f)
		default:
			if n > 0 {
				gAbandoned.Add(n)
				t.log.Warn("tcp: abandoned queued frames", "peer", pc.addr.String(), "frames", n)
			}
			return
		}
	}
}

// recordSendSpan records the one transport-layer span a traced frame is
// allowed: an instant "net.send" event parented under the wire context the
// frame carries (the coordinator's phase or attempt span), stamped with
// the final outcome and the number of write attempts the frame took.
// Idempotent via outFrame.spanned — a requeued frame retransmitted on a
// fresh connection never records twice. Untraced frames (TraceID 0, which
// includes every unsampled op) cost one predicate here and nothing else.
func (t *TCP) recordSendSpan(f *outFrame, outcome string) {
	if f.trace.TraceID == 0 || f.spanned {
		return
	}
	f.spanned = true
	now := time.Now()
	tracing.Record(tracing.Span{
		Trace:   f.trace.TraceID,
		ID:      t.ids.Next(),
		Parent:  f.trace.SpanID,
		Node:    t.self.String(),
		Name:    "net.send",
		Attempt: f.attempts,
		Outcome: outcome,
		Start:   now,
		End:     now,
	})
}

// emitStatus publishes a PeerStatus transition on the Network port.
// Suppressed once the transport is stopped: a shutdown is not peer news.
func (t *TCP) emitStatus(peer Address, up bool) {
	t.mu.Lock()
	stopped := t.stopped
	t.mu.Unlock()
	if stopped {
		return
	}
	if err := core.TriggerOn(t.port, PeerStatus{Peer: peer, Up: up}); err != nil {
		t.log.Debug("tcp: peer status dropped", "err", err)
	}
}

// errPeerClosed distinguishes an intentional peer shutdown from a broken
// connection inside the write loop.
var errPeerClosed = errors.New("peer closed")

// writeLoop is the per-peer connection manager: dial (with backoff),
// serve the connection until it breaks, redial. Frames stay on pc.ch
// across redials; the frames of a failed flush stay in pc.staged and are
// retransmitted first on the next connection.
func (t *TCP) writeLoop(pc *peerConn) {
	defer t.wg.Done()
	everUp := false
	for {
		conn, retried := t.dialPeer(pc)
		if conn == nil {
			// Retry budget exhausted or peer shut down: retire and account
			// for every frame left behind.
			t.setState(pc, PeerDown)
			down := everUp
			t.retirePeer(pc)
			t.abandonQueue(pc)
			if down || retried {
				t.emitStatus(pc.addr, false)
			}
			return
		}
		// Announce ourselves before the first frame: magic and version.
		if err := t.writeHandshake(conn); err != nil {
			_ = conn.Close()
			gSendErrors.Add(1)
			t.log.Debug("tcp: handshake failed", "peer", pc.addr.String(), "err", err)
			t.setState(pc, PeerBackoff)
			continue
		}
		if everUp || retried {
			gReconnects.Add(1)
			t.log.Info("tcp: peer reconnected", "peer", pc.addr.String())
		}
		everUp = true
		t.setState(pc, PeerUp)
		t.emitStatus(pc.addr, true)
		err := t.serveConn(pc, conn)
		_ = conn.Close()
		if errors.Is(err, errPeerClosed) {
			t.retirePeer(pc)
			t.abandonQueue(pc)
			return
		}
		t.log.Debug("tcp: connection broke", "peer", pc.addr.String(), "err", err)
		t.setState(pc, PeerBackoff)
		t.emitStatus(pc.addr, false)
	}
}

// dialPeer tries to establish the peer connection, sleeping a
// capped exponential backoff (±50% jitter) between attempts. Returns the
// connection and whether any attempt failed first; (nil, _) when the peer
// was closed or the attempt budget ran out.
func (t *TCP) dialPeer(pc *peerConn) (net.Conn, bool) {
	for attempt := 0; attempt < t.dialAttempts; attempt++ {
		select {
		case <-pc.close:
			return nil, attempt > 0
		default:
		}
		t.setState(pc, PeerConnecting)
		conn, err := net.DialTimeout("tcp", pc.addr.String(), dialTimeout)
		if err == nil {
			return conn, attempt > 0
		}
		gSendErrors.Add(1)
		t.log.Debug("tcp: dial failed", "peer", pc.addr.String(), "attempt", attempt+1, "err", err)
		t.setState(pc, PeerBackoff)
		select {
		case <-pc.close:
			return nil, true
		case <-time.After(t.backoff(attempt)):
		}
	}
	return nil, true
}

// backoff computes the sleep before retry attempt+1: base doubled per
// failure, capped, with ±50% jitter so peers dialing a recovered node
// don't stampede in lockstep.
func (t *TCP) backoff(attempt int) time.Duration {
	d := t.backoffBase
	for i := 0; i < attempt && d < t.backoffMax; i++ {
		d *= 2
	}
	if d > t.backoffMax {
		d = t.backoffMax
	}
	if d <= 1 {
		return d
	}
	half := int64(d) / 2
	return time.Duration(half + rand.Int63n(half*2)) //nolint:gosec // jitter, not crypto
}

// writeHandshake sends the connection preamble declaring the wire
// protocol version.
func (t *TCP) writeHandshake(conn net.Conn) error {
	if t.writeTimeout > 0 {
		_ = conn.SetWriteDeadline(time.Now().Add(t.writeTimeout))
	}
	var hs [handshakeLen]byte
	copy(hs[:4], handshakeMagic[:])
	hs[4] = wireVersion
	_, err := conn.Write(hs[:])
	return err
}

// stage appends one frame — length prefix and payload — to the write
// buffer.
func (pc *peerConn) stage(f *outFrame) {
	f.attempts++
	pc.wbuf = AppendU32(pc.wbuf, uint32(len(f.payload)))
	pc.wbuf = append(pc.wbuf, f.payload...)
}

// serveConn coalesces queued frames (and idle keepalives) into the write
// buffer and flushes it until the connection breaks or the peer is closed.
// It blocks only with an empty buffer; once a frame is staged it keeps
// draining the queue and flushes when the queue is empty or the buffer
// holds ioBufSize bytes. The frames of a failed flush stay in pc.staged —
// counted as requeued — so the reconnected peer transmits them first, in
// order, ahead of anything queued behind them. Their span bookkeeping
// rides in the outFrame across the redial: the retransmission finishes the
// original frame's story, it does not start a new one.
func (t *TCP) serveConn(pc *peerConn, conn net.Conn) error {
	pc.wbuf = pc.wbuf[:0]
	for i := range pc.staged {
		pc.stage(&pc.staged[i])
	}
	accept := func(f outFrame) {
		if len(f.payload) > maxFrame {
			gSendErrors.Add(1)
			releaseFrame(&f)
			return
		}
		pc.staged = append(pc.staged, f)
		pc.stage(&pc.staged[len(pc.staged)-1])
	}
	var ka <-chan time.Time
	if t.keepalive > 0 {
		ticker := time.NewTicker(t.keepalive)
		defer ticker.Stop()
		ka = ticker.C
	}
	for {
		if len(pc.wbuf) == 0 {
			select {
			case f := <-pc.ch:
				accept(f)
			case <-ka:
				// Keepalives are a bare magic length prefix: no payload, no
				// outFrame, and by construction no trace annotation — an idle
				// probe must never surface in an op's timeline.
				pc.wbuf = AppendU32(pc.wbuf, keepaliveMagic)
			case <-pc.close:
				return errPeerClosed
			}
		}
	drain:
		for len(pc.wbuf) < ioBufSize {
			select {
			case f := <-pc.ch:
				accept(f)
			default:
				break drain
			}
		}
		if len(pc.wbuf) == 0 {
			continue // the only frame taken was oversized and dropped
		}
		if err := t.flush(pc, conn); err != nil {
			return err
		}
	}
}

// flush writes the buffer with one deadline update and one write. Only
// when the write returned are the staged frames resolved: their spans
// recorded and their encode buffers released. On failure they all stay
// staged for the next connection.
func (t *TCP) flush(pc *peerConn, conn net.Conn) error {
	if t.writeTimeout > 0 {
		_ = conn.SetWriteDeadline(time.Now().Add(t.writeTimeout))
	}
	if _, err := conn.Write(pc.wbuf); err != nil {
		var first uint64 // frames preserved for the first time
		for i := range pc.staged {
			if pc.staged[i].attempts == 1 {
				first++
			}
		}
		gRequeued.Add(first)
		gSendErrors.Add(1)
		return err
	}
	for i := range pc.staged {
		t.recordSendSpan(&pc.staged[i], "ok")
		releaseFrame(&pc.staged[i])
	}
	pc.staged = pc.staged[:0]
	pc.wbuf = pc.wbuf[:0]
	if cap(pc.wbuf) > 2*ioBufSize {
		pc.wbuf = nil // one huge handoff chunk must not pin megabytes per peer
	}
	return nil
}

// acceptLoop accepts inbound connections and spawns a reader per peer.
func (t *TCP) acceptLoop(ln net.Listener) {
	defer t.wg.Done()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return // listener closed on shutdown
		}
		t.mu.Lock()
		stopped := t.stopped
		if !stopped {
			t.wg.Add(1)
			t.inbound[conn] = struct{}{}
		}
		t.mu.Unlock()
		if stopped {
			_ = conn.Close()
			return
		}
		go t.readLoop(conn)
	}
}

// idleReader refreshes the connection's idle deadline before every read
// from the socket: one deadline update per read syscall, however many
// frames that read returns. A connection silent for defaultIdleTimeout,
// well past the peers' keepalive period, is reaped.
type idleReader struct{ conn net.Conn }

func (r idleReader) Read(p []byte) (int, error) {
	_ = r.conn.SetReadDeadline(time.Now().Add(defaultIdleTimeout))
	return r.conn.Read(p)
}

// readLoop decodes frames from one inbound connection and delivers them on
// the Network port. The connection must open with a valid handshake;
// decode dispatches on each payload's format flag, so frames from any codec
// decode without renegotiation. Keepalives only keep the connection from
// going idle; any other control prefix closes it, and a connection silent
// past the idle timeout is reaped. Every payload is read into the same
// frame buffer: decoded messages own their memory, so the next frame may
// overwrite it.
func (t *TCP) readLoop(conn net.Conn) {
	defer t.wg.Done()
	defer func() {
		_ = conn.Close()
		t.mu.Lock()
		delete(t.inbound, conn)
		t.mu.Unlock()
	}()
	br := bufio.NewReaderSize(idleReader{conn}, ioBufSize)
	hs, err := br.Peek(handshakeLen)
	if err != nil {
		t.log.Debug("tcp: handshake read", "err", err)
		return
	}
	if [4]byte(hs[:4]) != handshakeMagic || hs[4] != wireVersion {
		t.log.Warn("tcp: bad handshake", "magic", fmt.Sprintf("%x", hs[:4]), "version", hs[4])
		return
	}
	_, _ = br.Discard(handshakeLen) // cannot fail: Peek just returned these bytes
	var frame []byte
	for {
		prefix, err := br.Peek(4)
		if err != nil {
			if !errors.Is(err, io.EOF) {
				t.log.Debug("tcp: read header", "err", err)
			}
			return
		}
		n := binary.BigEndian.Uint32(prefix)
		_, _ = br.Discard(4)
		if isControlPrefix(n) {
			if n == keepaliveMagic {
				continue
			}
			t.log.Warn("tcp: unknown control prefix", "prefix", fmt.Sprintf("0x%08x", n))
			return
		}
		if n == 0 || n > maxFrame {
			t.log.Warn("tcp: bad frame length", "len", n)
			return
		}
		if cap(frame) < int(n) {
			frame = make([]byte, n)
		}
		frame = frame[:n]
		if _, err := io.ReadFull(br, frame); err != nil {
			return
		}
		m, err := DecodePayload(frame)
		if cap(frame) > maxPooledFrame {
			frame = nil // one huge handoff chunk must not pin megabytes per connection
		}
		if err != nil {
			t.log.Warn("tcp: decode failed", "err", err)
			continue
		}
		gReceived.Add(1)
		if err := core.TriggerOn(t.port, m); err != nil {
			t.log.Warn("tcp: deliver failed", "err", err)
		}
	}
}
