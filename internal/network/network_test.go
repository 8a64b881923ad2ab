package network

import (
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/core"
)

// Test message types.

type hello struct {
	Header
	Greeting string
}

type data struct {
	Header
	Seq     int
	Payload []byte
}

func init() {
	Register(hello{})
	Register(data{})
}

func addr(i int) Address { return Address{Host: "node", Port: uint16(i)} }

func TestAddressStringAndParse(t *testing.T) {
	a := Address{Host: "10.0.0.1", Port: 8080}
	s := a.String()
	got, err := ParseAddress(s)
	if err != nil {
		t.Fatal(err)
	}
	if got != a {
		t.Fatalf("round-trip %v != %v", got, a)
	}
	if _, err := ParseAddress("nonsense"); err == nil {
		t.Fatalf("parse must fail on garbage")
	}
	if _, err := ParseAddress("host:99999"); err == nil {
		t.Fatalf("parse must fail on out-of-range port")
	}
	if !(Address{}).IsZero() {
		t.Fatalf("zero address must report IsZero")
	}
	if a.IsZero() {
		t.Fatalf("non-zero address must not report IsZero")
	}
}

func TestHeaderAndReply(t *testing.T) {
	h := NewHeader(addr(1), addr(2))
	if h.Source() != addr(1) || h.Destination() != addr(2) {
		t.Fatalf("header accessors wrong")
	}
	r := Reply(h)
	if r.Source() != addr(2) || r.Destination() != addr(1) {
		t.Fatalf("reply must swap source and destination")
	}
}

func TestCodecRoundTripPlain(t *testing.T) {
	c := Codec{}
	m := data{Header: NewHeader(addr(1), addr(2)), Seq: 7, Payload: []byte("abc")}
	enc, err := c.Encode(m)
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.Decode(enc)
	if err != nil {
		t.Fatal(err)
	}
	d, ok := got.(data)
	if !ok {
		t.Fatalf("decoded type %T", got)
	}
	if d.Seq != 7 || string(d.Payload) != "abc" || d.Source() != addr(1) {
		t.Fatalf("decoded %+v", d)
	}
}

func TestCodecRoundTripCompressed(t *testing.T) {
	c := Codec{Compress: true}
	payload := make([]byte, 4096) // compressible zeros
	m := data{Header: NewHeader(addr(1), addr(2)), Seq: 1, Payload: payload}
	enc, err := c.Encode(m)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := Codec{}.Encode(m)
	if err != nil {
		t.Fatal(err)
	}
	if len(enc) >= len(plain) {
		t.Fatalf("compressed (%d) not smaller than plain (%d)", len(enc), len(plain))
	}
	got, err := c.Decode(enc)
	if err != nil {
		t.Fatal(err)
	}
	if got.(data).Seq != 1 {
		t.Fatalf("decoded %+v", got)
	}
}

func TestCodecCrossCompatibility(t *testing.T) {
	// A non-compressing codec must decode compressed payloads and vice
	// versa (the flag byte drives it).
	m := hello{Header: NewHeader(addr(1), addr(2)), Greeting: "hi"}
	enc, err := Codec{Compress: true}.Encode(m)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Codec{}.Decode(enc)
	if err != nil {
		t.Fatal(err)
	}
	if got.(hello).Greeting != "hi" {
		t.Fatalf("decoded %+v", got)
	}
}

func TestCodecErrors(t *testing.T) {
	c := Codec{}
	if _, err := c.Decode(nil); err == nil {
		t.Fatalf("decode empty must fail")
	}
	if _, err := c.Decode([]byte{0x7f, 1, 2}); err == nil {
		t.Fatalf("decode unknown flag must fail")
	}
	if _, err := c.Decode([]byte{flagPlain, 1, 2, 3}); err == nil {
		t.Fatalf("decode garbage must fail")
	}
	if _, err := c.Decode([]byte{flagZlib, 1, 2, 3}); err == nil {
		t.Fatalf("decode garbage zlib must fail")
	}
}

func TestPropertyCodecRoundTrip(t *testing.T) {
	f := func(seq int, payload []byte, compress bool) bool {
		c := Codec{Compress: compress}
		m := data{Header: NewHeader(addr(1), addr(2)), Seq: seq, Payload: payload}
		enc, err := c.Encode(m)
		if err != nil {
			return false
		}
		got, err := c.Decode(enc)
		if err != nil {
			return false
		}
		d, ok := got.(data)
		if !ok || d.Seq != seq || len(d.Payload) != len(payload) {
			return false
		}
		for i := range payload {
			if d.Payload[i] != payload[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// --- loopback ----------------------------------------------------------------

// node is a test component owning a loopback transport and counting
// received messages. It uses the child transport's provided port directly
// (the Kompics idiom for a parent consuming a service its own child
// provides): requests are triggered on the child's port and indications are
// received by handlers subscribed there.
type node struct {
	self     Address
	registry *LoopbackRegistry
	ctx      *core.Ctx
	port     *core.Port
	got      atomic.Int64
	mu       sync.Mutex
	msgs     []Message
}

func (n *node) Setup(ctx *core.Ctx) {
	n.ctx = ctx
	lb := ctx.Create("net", NewLoopback(n.self, n.registry))
	n.port = lb.Provided(PortType)
	core.Subscribe(ctx, n.port, func(m Message) {
		n.got.Add(1)
		n.mu.Lock()
		n.msgs = append(n.msgs, m)
		n.mu.Unlock()
	})
}

func (n *node) send(m Message) { n.ctx.Trigger(m, n.port) }

func newLoopbackPair(t *testing.T, opts ...LoopbackOption) (*core.Runtime, *node, *node, *LoopbackRegistry) {
	t.Helper()
	reg := NewLoopbackRegistry(opts...)
	n1 := &node{self: addr(1), registry: reg}
	n2 := &node{self: addr(2), registry: reg}
	rt := core.New(
		core.WithScheduler(core.NewWorkStealingScheduler(2)),
		core.WithFaultPolicy(core.LogAndContinue),
	)
	t.Cleanup(rt.Shutdown)
	rt.MustBootstrap("Main", core.SetupFunc(func(ctx *core.Ctx) {
		ctx.Create("n1", n1)
		ctx.Create("n2", n2)
	}))
	if !rt.WaitQuiescence(5 * time.Second) {
		t.Fatal("no quiescence")
	}
	return rt, n1, n2, reg
}

func TestLoopbackDelivers(t *testing.T) {
	rt, n1, n2, reg := newLoopbackPair(t)
	n1.send(hello{Header: NewHeader(n1.self, n2.self), Greeting: "hi"})
	if !rt.WaitQuiescence(5 * time.Second) {
		t.Fatal("no quiescence")
	}
	if n2.got.Load() != 1 {
		t.Fatalf("n2 got %d messages, want 1", n2.got.Load())
	}
	delivered, _, _ := reg.Stats()
	if delivered != 1 {
		t.Fatalf("registry delivered %d, want 1", delivered)
	}
}

func TestLoopbackSelfDelivery(t *testing.T) {
	rt, n1, _, _ := newLoopbackPair(t)
	n1.send(hello{Header: NewHeader(n1.self, n1.self), Greeting: "self"})
	if !rt.WaitQuiescence(5 * time.Second) {
		t.Fatal("no quiescence")
	}
	if n1.got.Load() != 1 {
		t.Fatalf("self-delivery failed: got %d", n1.got.Load())
	}
}

func TestLoopbackUnroutable(t *testing.T) {
	rt, n1, _, reg := newLoopbackPair(t)
	n1.send(hello{Header: NewHeader(n1.self, addr(99))})
	if !rt.WaitQuiescence(5 * time.Second) {
		t.Fatal("no quiescence")
	}
	_, _, unroutable := reg.Stats()
	if unroutable != 1 {
		t.Fatalf("unroutable %d, want 1", unroutable)
	}
}

func TestLoopbackCodecRoundTrip(t *testing.T) {
	rt, n1, n2, _ := newLoopbackPair(t, WithWireCodec(Codec{Compress: true}))
	n1.send(data{Header: NewHeader(n1.self, n2.self), Seq: 3, Payload: []byte("xyz")})
	if !rt.WaitQuiescence(5 * time.Second) {
		t.Fatal("no quiescence")
	}
	n2.mu.Lock()
	defer n2.mu.Unlock()
	if len(n2.msgs) != 1 {
		t.Fatalf("got %d messages", len(n2.msgs))
	}
	d := n2.msgs[0].(data)
	if d.Seq != 3 || string(d.Payload) != "xyz" {
		t.Fatalf("decoded %+v", d)
	}
}

func TestLoopbackDropRate(t *testing.T) {
	rt, n1, n2, reg := newLoopbackPair(t, WithDropRate(1.0, 42))
	for i := 0; i < 10; i++ {
		n1.send(hello{Header: NewHeader(n1.self, n2.self)})
	}
	if !rt.WaitQuiescence(5 * time.Second) {
		t.Fatal("no quiescence")
	}
	if n2.got.Load() != 0 {
		t.Fatalf("drop rate 1.0 delivered %d messages", n2.got.Load())
	}
	_, dropped, _ := reg.Stats()
	if dropped != 10 {
		t.Fatalf("dropped %d, want 10", dropped)
	}
}

func TestLoopbackDelay(t *testing.T) {
	rt, n1, n2, _ := newLoopbackPair(t, WithConstantDelay(20*time.Millisecond))
	start := time.Now()
	n1.send(hello{Header: NewHeader(n1.self, n2.self)})
	deadline := time.Now().Add(2 * time.Second)
	for n2.got.Load() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if n2.got.Load() != 1 {
		t.Fatalf("delayed message never arrived")
	}
	if elapsed := time.Since(start); elapsed < 15*time.Millisecond {
		t.Fatalf("delivered too fast: %v", elapsed)
	}
	_ = rt
}

func TestLoopbackStopUnregisters(t *testing.T) {
	rt, n1, n2, reg := newLoopbackPair(t)
	root := rt.Root()
	// Stop n2's subtree: its transport unregisters.
	for _, ch := range root.Children() {
		if ch.Name() == "n2" {
			core.TriggerOn(ch.Control(), core.Stop{}) //nolint:errcheck
		}
	}
	if !rt.WaitQuiescence(5 * time.Second) {
		t.Fatal("no quiescence")
	}
	n1.send(hello{Header: NewHeader(n1.self, n2.self)})
	if !rt.WaitQuiescence(5 * time.Second) {
		t.Fatal("no quiescence")
	}
	_, _, unroutable := reg.Stats()
	if unroutable != 1 {
		t.Fatalf("message to stopped node should be unroutable, got %d", unroutable)
	}
}

// --- TCP -----------------------------------------------------------------------

// tcpNode wires a TCP transport under a counting client. It also records
// every PeerStatus indication so tests can assert liveness transitions.
type tcpNode struct {
	self     Address
	opts     []TCPOption
	ctx      *core.Ctx
	port     *core.Port
	tcp      *TCP
	got      atomic.Int64
	mu       sync.Mutex
	msgs     []Message
	statuses []PeerStatus
}

func (n *tcpNode) Setup(ctx *core.Ctx) {
	n.ctx = ctx
	n.tcp = NewTCP(n.self, n.opts...)
	tc := ctx.Create("net", n.tcp)
	n.port = tc.Provided(PortType)
	core.Subscribe(ctx, n.port, func(m Message) {
		n.got.Add(1)
		n.mu.Lock()
		n.msgs = append(n.msgs, m)
		n.mu.Unlock()
	})
	core.Subscribe(ctx, n.port, func(s PeerStatus) {
		n.mu.Lock()
		n.statuses = append(n.statuses, s)
		n.mu.Unlock()
	})
}

// peerStatuses snapshots the recorded PeerStatus transitions.
func (n *tcpNode) peerStatuses() []PeerStatus {
	n.mu.Lock()
	defer n.mu.Unlock()
	return append([]PeerStatus(nil), n.statuses...)
}

// testTCPAddr reserves a free loopback port from the OS.
func testTCPAddr(t *testing.T) Address {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	port := ln.Addr().(*net.TCPAddr).Port
	_ = ln.Close()
	return Address{Host: "127.0.0.1", Port: uint16(port)}
}

func newTCPPair(t *testing.T, opts ...TCPOption) (*core.Runtime, *tcpNode, *tcpNode) {
	t.Helper()
	n1 := &tcpNode{self: testTCPAddr(t), opts: opts}
	n2 := &tcpNode{self: testTCPAddr(t), opts: opts}
	rt := core.New(
		core.WithScheduler(core.NewWorkStealingScheduler(2)),
		core.WithFaultPolicy(core.LogAndContinue),
	)
	rt.MustBootstrap("Main", core.SetupFunc(func(ctx *core.Ctx) {
		ctx.Create("n1", n1)
		ctx.Create("n2", n2)
	}))
	if !rt.WaitQuiescence(5 * time.Second) {
		t.Fatal("no quiescence")
	}
	t.Cleanup(func() {
		n1.tcp.shutdown()
		n2.tcp.shutdown()
		rt.Shutdown()
	})
	return rt, n1, n2
}

// waitCount polls until the counter reaches want.
func waitCount(t *testing.T, c *atomic.Int64, want int64, timeout time.Duration) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if c.Load() >= want {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("count %d, want >= %d within %v", c.Load(), want, timeout)
}

func TestTCPDelivers(t *testing.T) {
	_, n1, n2 := newTCPPair(t)
	n1.ctx.Trigger(hello{Header: NewHeader(n1.self, n2.self), Greeting: "over tcp"}, n1.port)
	waitCount(t, &n2.got, 1, 5*time.Second)
	n2.mu.Lock()
	defer n2.mu.Unlock()
	h := n2.msgs[0].(hello)
	if h.Greeting != "over tcp" || h.Source() != n1.self {
		t.Fatalf("received %+v", h)
	}
}

func TestTCPBidirectional(t *testing.T) {
	_, n1, n2 := newTCPPair(t)
	n1.ctx.Trigger(hello{Header: NewHeader(n1.self, n2.self), Greeting: "ping"}, n1.port)
	waitCount(t, &n2.got, 1, 5*time.Second)
	n2.ctx.Trigger(hello{Header: NewHeader(n2.self, n1.self), Greeting: "pong"}, n2.port)
	waitCount(t, &n1.got, 1, 5*time.Second)
}

func TestTCPManyMessagesInOrder(t *testing.T) {
	_, n1, n2 := newTCPPair(t)
	const n = 500
	for i := 0; i < n; i++ {
		n1.ctx.Trigger(data{Header: NewHeader(n1.self, n2.self), Seq: i}, n1.port)
	}
	waitCount(t, &n2.got, n, 10*time.Second)
	n2.mu.Lock()
	defer n2.mu.Unlock()
	for i, m := range n2.msgs {
		if m.(data).Seq != i {
			t.Fatalf("order violated at %d: got seq %d", i, m.(data).Seq)
		}
	}
}

func TestTCPSelfDelivery(t *testing.T) {
	_, n1, _ := newTCPPair(t)
	n1.ctx.Trigger(hello{Header: NewHeader(n1.self, n1.self), Greeting: "self"}, n1.port)
	waitCount(t, &n1.got, 1, 5*time.Second)
}

func TestTCPZlibCodec(t *testing.T) {
	_, n1, n2 := newTCPPair(t, WithWireCodecName("gob+zlib"))
	payload := make([]byte, 2048)
	n1.ctx.Trigger(data{Header: NewHeader(n1.self, n2.self), Seq: 1, Payload: payload}, n1.port)
	waitCount(t, &n2.got, 1, 5*time.Second)
	n2.mu.Lock()
	defer n2.mu.Unlock()
	if len(n2.msgs[0].(data).Payload) != 2048 {
		t.Fatalf("payload mangled")
	}
}

func TestTCPSendToDeadPeerCountsError(t *testing.T) {
	_, n1, _ := newTCPPair(t)
	dead := Address{Host: "127.0.0.1", Port: 1} // nothing listens
	n1.ctx.Trigger(hello{Header: NewHeader(n1.self, dead)}, n1.port)
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if _, _, _, errs := n1.tcp.Stats(); errs > 0 {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("send to dead peer did not register an error")
}

func TestTCPStats(t *testing.T) {
	_, n1, n2 := newTCPPair(t)
	n1.ctx.Trigger(hello{Header: NewHeader(n1.self, n2.self)}, n1.port)
	waitCount(t, &n2.got, 1, 5*time.Second)
	sent, _, _, _ := n1.tcp.Stats()
	if sent != 1 {
		t.Fatalf("sent %d, want 1", sent)
	}
	_, received, _, _ := n2.tcp.Stats()
	if received != 1 {
		t.Fatalf("received %d, want 1", received)
	}
}

func TestTCPConcurrentSenders(t *testing.T) {
	_, n1, n2 := newTCPPair(t)
	const senders = 4
	const per = 100
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				n1.ctx.Trigger(data{
					Header: NewHeader(n1.self, n2.self),
					Seq:    s*per + i,
				}, n1.port)
			}
		}(s)
	}
	wg.Wait()
	waitCount(t, &n2.got, senders*per, 10*time.Second)
}

func TestTCPShutdownIdempotent(t *testing.T) {
	_, n1, _ := newTCPPair(t)
	n1.tcp.shutdown()
	n1.tcp.shutdown()
}

func TestRegisterAndEnvelope(t *testing.T) {
	// Unregistered types must fail encoding with a clear error.
	type unregistered struct {
		Header
		X int
	}
	_, err := Codec{}.Encode(unregistered{})
	if err == nil {
		t.Fatalf("encoding unregistered type must fail")
	}
	if fmt.Sprintf("%v", err) == "" {
		t.Fatalf("error must format")
	}
}
