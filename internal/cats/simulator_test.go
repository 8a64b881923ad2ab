package cats

import (
	"testing"
	"time"
	"unsafe"

	"repro/internal/abd"
	"repro/internal/core"
	"repro/internal/ident"
)

// TestSimulatorResolveZeroAlloc: the experiment host routes every put, get
// and lookup to the alive node responsible for its NodeKey through resolve,
// and the closed-loop load reads AliveNodes per op. Both read the sorted
// index the host keeps, so routing an op allocates nothing.
func TestSimulatorResolveZeroAlloc(t *testing.T) {
	c := NewSimCluster(3, fastTimings, "", testLAN)
	keys := []ident.Key{4000, 1000, 3000, 2000}
	for _, k := range keys {
		if err := core.TriggerOn(c.Exp, JoinNode{Key: k}); err != nil {
			t.Fatal(err)
		}
		c.Sim.Run(50 * time.Millisecond)
	}
	if err := core.TriggerOn(c.Exp, FailNode{Key: 3000}); err != nil {
		t.Fatal(err)
	}
	c.Sim.Run(50 * time.Millisecond)

	refs := c.Host.AliveNodes()
	if len(refs) != 3 || refs[0].Key != 1000 || refs[1].Key != 2000 || refs[2].Key != 4000 {
		t.Fatalf("alive nodes %v, want keys 1000 2000 4000 in order", refs)
	}
	for key, want := range map[ident.Key]ident.Key{1: 1000, 1000: 1000, 2500: 4000, 3000: 4000, 4001: 1000} {
		if h := c.Host.resolve(key); h == nil || h.ref.Key != want {
			t.Fatalf("resolve(%d) = %v, want node %d", key, h, want)
		}
	}

	if n := testing.AllocsPerRun(1000, func() { _ = c.Host.resolve(2500) }); n != 0 {
		t.Fatalf("resolve: %.1f allocs per op, want 0", n)
	}
	if n := testing.AllocsPerRun(1000, func() { _ = c.Host.AliveNodes() }); n != 0 {
		t.Fatalf("AliveNodes: %.1f allocs per op, want 0", n)
	}
}

// TestRecordedGetSharesPutValue: under RecordOps a recorded get that
// returns a recorded put's value shares that put's string, and a get
// returning a value no recorded put wrote records a copy of it.
func TestRecordedGetSharesPutValue(t *testing.T) {
	c := NewSimCluster(29, fastTimings, "", testLAN)
	c.Host.RecordOps = true
	keys := join(t, c, 3)
	if err := core.TriggerOn(c.Exp, OpPut{NodeKey: keys[0], Key: "color", Value: []byte("indigo")}); err != nil {
		t.Fatal(err)
	}
	c.Sim.Run(5 * time.Second)
	if err := core.TriggerOn(c.Exp, OpGet{NodeKey: keys[1], Key: "color"}); err != nil {
		t.Fatal(err)
	}
	c.Sim.Run(5 * time.Second)

	hist := c.Host.OpHistory()
	if len(hist) != 2 || hist[0].Kind != "put" || hist[1].Kind != "get" || !hist[1].Found {
		t.Fatalf("history %+v, want the put then a get that found it", hist)
	}
	put, get := hist[0], hist[1]
	if get.Value != put.Value || unsafe.StringData(get.Value) != unsafe.StringData(put.Value) {
		t.Fatalf("get recorded %q at %p, want the put's %q at %p",
			get.Value, unsafe.StringData(get.Value), put.Value, unsafe.StringData(put.Value))
	}

	// A response carrying a value no recorded put wrote: the record must
	// own its bytes, not alias the response's.
	const id = simReqBase - 1
	c.Host.pending[id] = &pendingOp{kind: "get", key: "color", start: c.Sim.Now()}
	stray := []byte("never-put")
	c.Host.handleGetResponse(abd.GetResponse{ReqID: id, Value: stray, Found: true})
	hist = c.Host.OpHistory()
	rec := hist[len(hist)-1]
	if unsafe.StringData(rec.Value) == unsafe.SliceData(stray) {
		t.Fatalf("get of an unknown value aliases the response's bytes")
	}
	stray[0] = 'N'
	if rec.Value != "never-put" {
		t.Fatalf("get of an unknown value recorded %q, want %q", rec.Value, "never-put")
	}
}
