package main

import (
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/abd"
	"repro/internal/core"
	"repro/internal/ident"
	"repro/internal/router"
)

// The load generator is a component, like every caller of the store: one
// client per node, wired to that node's provided PutGet port. It issues the
// next operation from inside the response handler (closed loop), so the
// generator owns no goroutine of its own and its in-flight count is an
// exact constant. The main goroutine talks to it through kick events and
// reads its state only while it is drained.

type kick struct{}
type canaryCmd struct{}

var ctlPortType = core.NewPortType("KVBenchCtl",
	core.Request[kick](),
	core.Request[canaryCmd](),
	core.Request[lookupCmd](),
)

const (
	maxInflight = 64
	canarySlot  = 0xff
)

type slot struct {
	reqID uint64
	kind  opKind
	key   uint32
	// seq is the stamp sequence of a put; for a get it is the newest put
	// of this client on the key that was acked before the get was issued.
	seq           uint32
	start, issued int64
}

// ackRec is a client's newest acknowledged put on one key.
type ackRec struct {
	seq        uint32
	start, end int64
}

// histOp is one completed operation on a sampled key.
type histOp struct {
	kind       opKind
	client     uint16 // writer (put) or writer of the value read (get)
	seq        uint32
	start, end int64
}

// opRec is the benchmark's own span pair for one operation, kept in traced
// phases only: start→issued is the client's Trigger call, end is
// response-handler entry.
type opRec struct {
	key                uint32
	kind               opKind
	start, issued, end int64
}

// phase collects one client's measurements for one phase, cut into windows.
type phase struct {
	start  int64 // ns since the run's base time
	window int64
	lat    [2][][]uint32 // kind → window → latency ns
	done   []uint32      // completions per window
	total  uint64        // completions including those past the last window
	puts   uint64
	last   int64
	maxGap int64
	recs   []opRec
}

func newPhase(start int64, window time.Duration, windows int) *phase {
	p := &phase{start: start, window: int64(window), done: make([]uint32, windows), last: start}
	for k := range p.lat {
		p.lat[k] = make([][]uint32, windows)
	}
	return p
}

type client struct {
	id     uint16
	data   *dataset
	stream opStream
	base   time.Time
	// record keeps an opRec per completed operation (traced latency phase).
	record bool
	// corruptOneGet makes the next get response look stale; tests use it to
	// show that a wrong answer reaches failed and the exit code.
	corruptOneGet atomic.Bool

	ctx  *core.Ctx
	port *core.Port
	ctl  *core.Port

	target atomic.Int32
	idle   chan struct{}

	slots    [maxInflight]slot
	free     []uint8
	inflight int
	gen      uint64
	putSeq   uint32
	ph       *phase

	lastAck []ackRec
	hist    [][]histOp

	attempted, failed uint64
	firstErr          string

	canaryDone chan error

	// Router lookup probe (probeLookup): lookups left, and when it began.
	rout        *core.Port
	lookupLeft  int
	lookupStart time.Time
	lookupDone  chan time.Duration
}

func newClient(id int, data *dataset, stream opStream, base time.Time) *client {
	c := &client{
		id:         uint16(id),
		data:       data,
		stream:     stream,
		base:       base,
		idle:       make(chan struct{}, 1),
		lastAck:    make([]ackRec, len(data.keys)),
		hist:       make([][]histOp, data.nSampled),
		canaryDone: make(chan error, 1),
		lookupDone: make(chan time.Duration, 1),
	}
	for i := maxInflight - 1; i >= 0; i-- {
		c.free = append(c.free, uint8(i))
	}
	return c
}

var _ core.Definition = (*client)(nil)

func (c *client) Setup(ctx *core.Ctx) {
	c.ctx = ctx
	c.port = ctx.Requires(abd.PutGetPortType)
	c.ctl = ctx.Provides(ctlPortType)
	core.Subscribe(ctx, c.port, c.onGet)
	core.Subscribe(ctx, c.port, c.onPut)
	core.Subscribe(ctx, c.ctl, func(kick) { c.pump() })
	core.Subscribe(ctx, c.ctl, func(canaryCmd) {
		ctx.Trigger(abd.PutRequest{ReqID: c.canaryID(), Key: c.canaryKey(), Value: []byte("canary")}, c.port)
	})
	c.rout = ctx.Requires(router.PortType)
	core.Subscribe(ctx, c.ctl, func(l lookupCmd) {
		c.lookupLeft, c.lookupStart = l.n, time.Now()
		c.lookup()
	})
	core.Subscribe(ctx, c.rout, func(f router.FoundSuccessor) {
		if f.ReqID != c.lookupID() {
			return
		}
		if c.lookupLeft--; c.lookupLeft == 0 {
			c.lookupDone <- time.Since(c.lookupStart)
			return
		}
		c.lookup()
	})
}

func (c *client) lookupID() uint64 { return 1<<60 + uint64(c.lookupLeft) }

func (c *client) lookup() {
	key := c.data.keys[c.lookupLeft%len(c.data.keys)]
	c.ctx.Trigger(router.FindSuccessor{ReqID: c.lookupID(), Key: ident.KeyOfString(key), Count: nodes}, c.rout)
}

func (c *client) now() int64 { return int64(time.Since(c.base)) }

func (c *client) canaryID() uint64  { return uint64(c.id+1)<<56 | canarySlot }
func (c *client) canaryKey() string { return fmt.Sprintf("canary-%d", c.id) }

func (c *client) fail(format string, args ...any) {
	c.failed++
	if c.firstErr == "" {
		c.firstErr = fmt.Sprintf("client %d: ", c.id) + fmt.Sprintf(format, args...)
	}
}

// pump issues operations until the in-flight count reaches the target, and
// tells the main goroutine when the client has drained.
func (c *client) pump() {
	target := int(c.target.Load())
	for c.inflight < target {
		c.issue()
	}
	if c.inflight == 0 && target == 0 {
		select {
		case c.idle <- struct{}{}:
		default:
		}
	}
}

func (c *client) keyInFlight(key uint32) bool {
	for i := range c.slots {
		if c.slots[i].reqID != 0 && c.slots[i].key == key {
			return true
		}
	}
	return false
}

func (c *client) issue() {
	kind, key := c.stream.next()
	// One client never has two operations in flight on one key: its own
	// operations on a key are then ordered in real time, which is what
	// lets the stamp checks below and the trace join be exact.
	for c.keyInFlight(key) {
		kind, key = c.stream.next()
	}
	si := c.free[len(c.free)-1]
	c.free = c.free[:len(c.free)-1]
	c.gen++
	s := &c.slots[si]
	*s = slot{reqID: uint64(c.id+1)<<56 | (c.gen&(1<<48-1))<<8 | uint64(si), kind: kind, key: key}
	c.inflight++
	c.attempted++
	if kind == kindPut {
		c.putSeq++
		s.seq = c.putSeq
		v := c.data.value(c.id, key, s.seq)
		s.start = c.now()
		c.ctx.Trigger(abd.PutRequest{ReqID: s.reqID, Key: c.data.keys[key], Value: v}, c.port)
	} else {
		s.seq = c.lastAck[key].seq
		s.start = c.now()
		c.ctx.Trigger(abd.GetRequest{ReqID: s.reqID, Key: c.data.keys[key]}, c.port)
	}
	if c.record {
		s.issued = c.now()
	}
}

func (c *client) take(reqID uint64) *slot {
	s := &c.slots[reqID&0xff%maxInflight]
	if reqID&0xff == canarySlot || s.reqID != reqID {
		return nil
	}
	return s
}

func (c *client) onPut(r abd.PutResponse) {
	end := c.now()
	if r.ReqID == c.canaryID() {
		if r.Err != "" {
			c.canaryDone <- fmt.Errorf("canary put: %s", r.Err)
			return
		}
		c.ctx.Trigger(abd.GetRequest{ReqID: c.canaryID(), Key: c.canaryKey()}, c.port)
		return
	}
	s := c.take(r.ReqID)
	if s == nil {
		return
	}
	if r.Err != "" {
		c.fail("put %s: %s", r.Key, r.Err)
	} else {
		c.lastAck[s.key] = ackRec{seq: s.seq, start: s.start, end: end}
		if h := c.data.sampled[s.key]; h >= 0 {
			c.hist[h] = append(c.hist[h], histOp{kind: kindPut, client: c.id, seq: s.seq, start: s.start, end: end})
		}
	}
	c.complete(s, end)
}

func (c *client) onGet(r abd.GetResponse) {
	end := c.now()
	if r.ReqID == c.canaryID() {
		var err error
		if r.Err != "" || !r.Found || string(r.Value) != "canary" {
			err = fmt.Errorf("canary get: err=%q found=%v", r.Err, r.Found)
		}
		c.canaryDone <- err
		return
	}
	s := c.take(r.ReqID)
	if s == nil {
		return
	}
	switch {
	case r.Err != "":
		c.fail("get %s: %s", r.Key, r.Err)
	case !r.Found:
		c.fail("get %s: preloaded key not found", r.Key)
	default:
		writer, seq, ok := c.data.check(r.Value, s.key)
		if c.corruptOneGet.CompareAndSwap(true, false) {
			ok = false
		}
		switch {
		case !ok:
			c.fail("get %s: value is not one written for this key", r.Key)
		case writer == preloadClient && s.seq > 0,
			writer == c.id && seq < s.seq:
			c.fail("get %s: stale read (writer %d seq %d, own acked put %d)", r.Key, writer, seq, s.seq)
		default:
			if h := c.data.sampled[s.key]; h >= 0 {
				c.hist[h] = append(c.hist[h], histOp{kind: kindGet, client: writer, seq: seq, start: s.start, end: end})
			}
		}
	}
	c.complete(s, end)
}

func (c *client) complete(s *slot, end int64) {
	if p := c.ph; p != nil {
		p.total++
		if s.kind == kindPut {
			p.puts++
		}
		if gap := end - p.last; gap > p.maxGap {
			p.maxGap = gap
		}
		p.last = end
		if w := int((end - p.start) / p.window); w >= 0 && w < len(p.done) {
			p.done[w]++
			lat := end - s.start
			if lat > 1<<32-1 {
				lat = 1<<32 - 1
			}
			p.lat[s.kind][w] = append(p.lat[s.kind][w], uint32(lat))
		}
		if c.record {
			p.recs = append(p.recs, opRec{key: s.key, kind: s.kind, start: s.start, issued: s.issued, end: end})
		}
	}
	c.free = append(c.free, uint8(s.reqID&0xff))
	s.reqID = 0
	c.inflight--
	c.pump()
}
