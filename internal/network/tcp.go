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

// Resilience defaults; see the corresponding TCPOptions (the idle timeout
// has none: see idleReader).
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
// message serialization through a swappable WireCodec backend — the
// binary codec by default (every node-to-node message type has a wire
// encoding; gob is the tagged fallback for anything else), gob or
// gob+zlib by option, switchable per peer at runtime via SwapCodec.
//
// Wire format: an 8-byte handshake (magic, version, codec capability
// byte), then frames — 4-byte big-endian length prefix + self-describing
// codec payload — interleaved with control frames from the reserved
// prefix range (keepalives, codec switches; see framing.go). Outbound
// connections are used for sending only; peers dial back for their own
// sends, so each direction has a dedicated connection.
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
// messages own their memory (see WireCodec).
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

	// codecs is the published codec choice: the default backend plus the
	// per-peer overrides installed by SwapCodec, which survive peer
	// retirement and redials. The send path reads it without a lock;
	// writers replace the whole table under mu. codecName defers resolution
	// of a WithWireCodecName option to Setup (so unknown names can be
	// logged, not panicked).
	codecs    atomic.Pointer[codecTable]
	codecName string

	keepalive    time.Duration
	writeTimeout time.Duration
	backoffBase  time.Duration
	backoffMax   time.Duration
	dialAttempts int
	queueLen     int

	ctx  *core.Ctx
	port *core.Port
	ids  *tracing.IDSource

	mu      sync.Mutex
	ln      net.Listener
	conns   map[Address]*peerConn
	inbound map[net.Conn]struct{}
	stopped bool
	wg      sync.WaitGroup

	sent, received, droppedFull, sendErrors atomic.Uint64
	reconnects, requeued, abandoned         atomic.Uint64
	codecSwaps                              atomic.Uint64
}

// codecTable is one immutable snapshot of a transport's codec choice.
type codecTable struct {
	def   WireCodec
	peers map[Address]WireCodec
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
	codecID  byte // capability byte of the codec that encoded payload
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

// WithWireCodecName selects the default wire-codec backend by registry
// name ("gob", "gob+zlib", "binary"). Unknown names are logged at Setup
// and the transport keeps its previous default.
func WithWireCodecName(name string) TCPOption {
	return func(t *TCP) { t.codecName = name }
}

// WithKeepalive sets the idle keepalive probe period (0 disables probes).
func WithKeepalive(d time.Duration) TCPOption {
	return func(t *TCP) { t.keepalive = d }
}

// WithWriteTimeout bounds a single frame write (0 disables the deadline);
// it is what unwedges a writer stalled on a dead or unreading peer.
func WithWriteTimeout(d time.Duration) TCPOption {
	return func(t *TCP) { t.writeTimeout = d }
}

// WithBackoff sets the reconnect backoff: base doubles per consecutive
// failure up to max, with ±50% jitter.
func WithBackoff(base, max time.Duration) TCPOption {
	return func(t *TCP) { t.backoffBase = base; t.backoffMax = max }
}

// WithDialAttempts sets how many consecutive dial failures retire a peer
// (its queue is then drained into the abandoned counter; the next send
// starts over).
func WithDialAttempts(n int) TCPOption {
	return func(t *TCP) { t.dialAttempts = n }
}

// WithSendQueueLen overrides the per-peer outbound queue capacity.
func WithSendQueueLen(n int) TCPOption {
	return func(t *TCP) { t.queueLen = n }
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
		ids:          tracing.NewIDSource(self.String()),
	}
	t.codecs.Store(&codecTable{def: BinaryCodec{}})
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
	if t.codecName != "" {
		if c, ok := CodecByName(t.codecName); ok {
			t.codecs.Store(&codecTable{def: c})
		} else {
			t.log.Warn("tcp: unknown wire codec, keeping default",
				"codec", t.codecName, "default", t.codecs.Load().def.Name())
		}
	}
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

// Stats returns transport counters: messages sent, received, dropped on
// full queues, and send errors.
func (t *TCP) Stats() (sent, received, droppedFull, sendErrors uint64) {
	return t.sent.Load(), t.received.Load(), t.droppedFull.Load(), t.sendErrors.Load()
}

// ResilienceStats returns the reconnect counters: successful redials after
// a failure, frames carried across a broken write, and frames abandoned
// when a peer's retry budget ran out.
func (t *TCP) ResilienceStats() (reconnects, requeued, abandoned uint64) {
	return t.reconnects.Load(), t.requeued.Load(), t.abandoned.Load()
}

// CodecStats returns how many live codec swaps this transport has applied.
func (t *TCP) CodecStats() (swaps uint64) { return t.codecSwaps.Load() }

// PeerCodec reports the codec currently used for frames to peer.
func (t *TCP) PeerCodec(peer Address) WireCodec { return t.codecFor(peer) }

// SwapCodec live-swaps the wire codec used for frames to peer, the paper's
// §2.6 hot-swap applied to the wire format. Every channel attached to the
// Network port is held first, so no send or indication can interleave with
// the swap; the peer's owned send queue keeps draining through the old
// codec (its frames were encoded at enqueue time and each carries its
// codec ID, so the writer announces the change with a codec-switch control
// frame exactly where the boundary falls — even if a redial lands in the
// middle); then the new codec is installed and the channels resume,
// flushing anything queued during the hold in FIFO order. Zero frames are
// lost or reordered. The override survives peer retirement and redials;
// it applies to the next frame encoded after the swap.
func (t *TCP) SwapCodec(peer Address, name string) error {
	err := t.swapCodecs(name, func(old *codecTable, c WireCodec) *codecTable {
		peers := make(map[Address]WireCodec, len(old.peers)+1)
		for a, pc := range old.peers {
			peers[a] = pc
		}
		peers[peer] = c
		return &codecTable{def: old.def, peers: peers}
	})
	if err == nil && t.log != nil {
		t.log.Info("tcp: wire codec swapped", "peer", peer.String(), "codec", name)
	}
	return err
}

// SwapAllCodecs swaps the default codec and every per-peer override to
// name, under one hold of the Network port.
func (t *TCP) SwapAllCodecs(name string) error {
	return t.swapCodecs(name, func(_ *codecTable, c WireCodec) *codecTable {
		return &codecTable{def: c}
	})
}

// swapCodecs resolves name and publishes the table next builds from the
// current one, with every channel attached to the Network port held.
func (t *TCP) swapCodecs(name string, next func(old *codecTable, c WireCodec) *codecTable) error {
	c, ok := CodecByName(name)
	if !ok {
		return fmt.Errorf("network: swap codec: unknown codec %q (have %v)", name, CodecNames())
	}
	if t.port != nil {
		chans := t.port.AttachedChannels()
		for _, ch := range chans {
			ch.Hold()
		}
		defer func() {
			for _, ch := range chans {
				ch.Resume()
			}
		}()
	}
	t.mu.Lock()
	t.codecs.Store(next(t.codecs.Load(), c))
	t.mu.Unlock()
	t.codecSwaps.Add(1)
	gCodecSwaps.Add(1)
	return nil
}

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

// codecFor resolves the wire codec for one peer: its SwapCodec override
// if present, else the transport default.
func (t *TCP) codecFor(dst Address) WireCodec {
	ct := t.codecs.Load()
	if c, ok := ct.peers[dst]; ok {
		return c
	}
	return ct.def
}

// handleSend routes an outbound message onto the peer's connection queue,
// dialing on demand. Messages to self are delivered directly. The frame is
// encoded here — through the peer's current codec, into a pooled buffer —
// so the bytes on the queue are immutable from this point on: a codec
// swapped later never re-encodes frames already queued under the old one.
func (t *TCP) handleSend(m Message) {
	if m.Destination() == t.self {
		t.received.Add(1)
		gReceived.Add(1)
		core.TriggerOn(t.port, m) //nolint:errcheck // port type validated at Setup
		return
	}
	codec := t.codecFor(m.Destination())
	fb := frameBufPool.Get().(*frameBuf)
	payload, err := codec.EncodeAppend(fb.b[:0], m)
	fb.b = payload[:0]
	if err != nil {
		frameBufPool.Put(fb)
		t.sendErrors.Add(1)
		gSendErrors.Add(1)
		t.log.Warn("tcp: encode failed", "type", fmt.Sprintf("%T", m), "err", err)
		return
	}
	var tc tracing.Context
	if tm, ok := m.(tracing.Traced); ok {
		tc = tm.TraceContext()
	}
	t.enqueue(m.Destination(), outFrame{
		payload: payload,
		buf:     fb,
		trace:   tc,
		codecID: codec.ID(),
	})
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
		t.sent.Add(1)
		gSent.Add(1)
	default:
		t.mu.Unlock()
		releaseFrame(&f)
		t.droppedFull.Add(1)
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
				t.abandoned.Add(n)
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
		conn, retried := t.dialWithBackoff(pc)
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
		// Announce ourselves before the first frame: magic, version, and
		// the capability byte naming this peer's current codec. Frames
		// queued under an older codec (including the staged ones, preserved
		// across the redial) still flow — stage emits a codec-switch control
		// frame whenever the next frame's codec differs from the one last
		// announced on this connection.
		connCodec := t.codecFor(pc.addr).ID()
		if err := t.writeHandshake(conn, connCodec); err != nil {
			_ = conn.Close()
			t.sendErrors.Add(1)
			gSendErrors.Add(1)
			t.log.Debug("tcp: handshake failed", "peer", pc.addr.String(), "err", err)
			t.setState(pc, PeerBackoff)
			continue
		}
		if everUp || retried {
			t.reconnects.Add(1)
			gReconnects.Add(1)
			t.log.Info("tcp: peer reconnected", "peer", pc.addr.String())
		}
		everUp = true
		t.setState(pc, PeerUp)
		t.emitStatus(pc.addr, true)
		err := t.serveConn(pc, conn, connCodec)
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

// dialWithBackoff tries to establish the peer connection, sleeping a
// capped exponential backoff (±50% jitter) between attempts. Returns the
// connection and whether any attempt failed first; (nil, _) when the peer
// was closed or the attempt budget ran out.
func (t *TCP) dialWithBackoff(pc *peerConn) (net.Conn, bool) {
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
		t.sendErrors.Add(1)
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
// protocol version and the codec capability byte for subsequent frames.
func (t *TCP) writeHandshake(conn net.Conn, codecID byte) error {
	if t.writeTimeout > 0 {
		_ = conn.SetWriteDeadline(time.Now().Add(t.writeTimeout))
	}
	var hs [handshakeLen]byte
	copy(hs[:4], handshakeMagic[:])
	hs[4] = wireVersion
	hs[5] = codecID
	_, err := conn.Write(hs[:])
	return err
}

// stage appends one frame — length prefix and payload, preceded by a
// codec-switch control frame when its codec differs from connCodec, the
// one last announced on this connection — to the write buffer, and returns
// the codec now announced. That is how a live SwapCodec (or a mixed-codec
// queue surviving a redial) stays frame-exact on the wire, also in the
// middle of one coalesced buffer.
func (pc *peerConn) stage(f *outFrame, connCodec byte) byte {
	f.attempts++
	if f.codecID != connCodec {
		pc.wbuf = AppendU32(pc.wbuf, codecSwitchMagic)
		pc.wbuf = append(pc.wbuf, f.codecID)
	}
	pc.wbuf = AppendU32(pc.wbuf, uint32(len(f.payload)))
	pc.wbuf = append(pc.wbuf, f.payload...)
	return f.codecID
}

// serveConn coalesces queued frames (and idle keepalives) into the write
// buffer and flushes it until the connection breaks or the peer is closed.
// It blocks only with an empty buffer; once a frame is staged it keeps
// draining the queue and flushes when the queue is empty or the buffer
// holds ioBufSize bytes. The frames of a failed flush stay in pc.staged —
// counted as requeued — so the reconnected peer transmits them first, in
// order, ahead of anything queued behind them. Their span bookkeeping
// rides in the outFrame across the redial: the retransmission finishes the
// original frame's story, it does not start a new one. connCodec is the
// codec ID the handshake announced.
func (t *TCP) serveConn(pc *peerConn, conn net.Conn, connCodec byte) error {
	pc.wbuf = pc.wbuf[:0]
	for i := range pc.staged {
		connCodec = pc.stage(&pc.staged[i], connCodec)
	}
	accept := func(f outFrame) {
		if len(f.payload) > maxFrame {
			t.sendErrors.Add(1)
			gSendErrors.Add(1)
			releaseFrame(&f)
			return
		}
		pc.staged = append(pc.staged, f)
		connCodec = pc.stage(&pc.staged[len(pc.staged)-1], connCodec)
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
		t.requeued.Add(first)
		gRequeued.Add(first)
		t.sendErrors.Add(1)
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
// the Network port. The connection must open with a valid handshake naming
// a registered codec; decode itself dispatches on each payload's format
// flag, so frames from any codec (or a mid-stream swap) decode without
// renegotiation. Keepalive control frames only keep the connection from
// going idle; codec-switch control frames update the peer's announced
// codec (and are validated against the registry); a connection silent past
// the idle timeout is reaped. Every payload is read into the same frame
// buffer: decoded messages own their memory, so the next frame may
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
	if _, ok := CodecByID(hs[5]); !ok {
		t.log.Warn("tcp: handshake names unknown codec", "id", fmt.Sprintf("0x%02x", hs[5]))
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
			switch n {
			case keepaliveMagic:
				continue
			case codecSwitchMagic:
				id, err := br.ReadByte()
				if err != nil {
					return
				}
				if _, ok := CodecByID(id); !ok {
					t.log.Warn("tcp: switch to unknown codec", "id", fmt.Sprintf("0x%02x", id))
					return
				}
				gCodecSwitchFrames.Add(1)
				continue
			default:
				t.log.Warn("tcp: unknown control prefix", "prefix", fmt.Sprintf("0x%08x", n))
				return
			}
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
		t.received.Add(1)
		gReceived.Add(1)
		if err := core.TriggerOn(t.port, m); err != nil {
			t.log.Warn("tcp: deliver failed", "err", err)
		}
	}
}
