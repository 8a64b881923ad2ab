package core

import "testing"

// Tests for route-plan pruning against the reconfiguration commands of
// §2.6. A plan leaves out a channel only while it is a plain pipe whose far
// side reaches nobody; a held or unplugged channel stays in the plan, so
// what it queues reaches the subscriptions that exist when it delivers.

// pruneWorld boots a server providing fanPort and the given clients, none
// of which subscribes, and returns the server's inner port and each
// client's Ctx.
func pruneWorld(t *testing.T, rt *Runtime, names ...string) (srv *Component, srvPort *Port, clients []*Component, ctxs []*Ctx) {
	t.Helper()
	clients = make([]*Component, len(names))
	ctxs = make([]*Ctx, len(names))
	rt.MustBootstrap("Main", SetupFunc(func(ctx *Ctx) {
		srv = ctx.Create("server", SetupFunc(func(sx *Ctx) {
			srvPort = sx.Provides(fanPort)
		}))
		for i, name := range names {
			clients[i] = ctx.Create(name, SetupFunc(func(cx *Ctx) {
				ctxs[i] = cx
				cx.Requires(fanPort)
			}))
		}
	}))
	waitQuiet(t, rt)
	return
}

// fanSeqs triggers fanEvent{first}, ..., fanEvent{first+n-1} at p.
func fanSeqs(t *testing.T, p *Port, first, n int) {
	t.Helper()
	for seq := first; seq < first+n; seq++ {
		if err := TriggerOn(p, fanEvent{Seq: seq}); err != nil {
			t.Fatal(err)
		}
	}
}

// requireChans asserts how many channels the server's cached fanEvent plan
// forwards through.
func requireChans(t *testing.T, srv *Component, want int) {
	t.Helper()
	plan := cachedPlan(srv.Provided(fanPort).pair, outer, fanEvent{})
	if plan == nil || len(plan.chans) != want {
		t.Fatalf("server plan %+v, want %d channels", plan, want)
	}
}

// TestPrunedChannelHoldSubscribeResume: a subscription added during a hold
// receives the events queued before it existed, on resume, in order, and
// the events after.
func TestPrunedChannelHoldSubscribeResume(t *testing.T) {
	rt := newTestRuntime(t)
	srv, srvPort, clients, ctxs := pruneWorld(t, rt, "c")
	ch := MustConnect(srv.Provided(fanPort), clients[0].Required(fanPort))

	fanSeqs(t, srvPort, 0, 1) // reaches nobody
	waitQuiet(t, rt)
	requireChans(t, srv, 0)

	ch.Hold()
	fanSeqs(t, srvPort, 1, 3)
	requireChans(t, srv, 1)
	rec := &seqRec{}
	Subscribe(ctxs[0], clients[0].Required(fanPort).twin(), func(ev fanEvent) { rec.add(ev.Seq) })
	waitQuiet(t, rt)
	if got := rec.snapshot(); len(got) != 0 {
		t.Fatalf("held channel delivered %v", got)
	}
	ch.Resume()
	fanSeqs(t, srvPort, 4, 2)
	waitQuiet(t, rt)
	assertFullSequence(t, "subscriber added during the hold", rec.snapshot(), 1, 5)
	requireChans(t, srv, 1)
}

// TestPrunedChannelDownstreamSubscribe: a chain of two plain channels
// (server → composite → its child) with no subscriber at the end is left
// out of the server's plan entirely; a subscriber added at the end of the
// chain receives the next event, and only events from then on.
func TestPrunedChannelDownstreamSubscribe(t *testing.T) {
	rt := newTestRuntime(t)
	var srv *Component
	var srvPort *Port
	var leaf *Component
	var leafCtx *Ctx
	rt.MustBootstrap("Main", SetupFunc(func(ctx *Ctx) {
		srv = ctx.Create("server", SetupFunc(func(sx *Ctx) {
			srvPort = sx.Provides(fanPort)
		}))
		mid := ctx.Create("mid", SetupFunc(func(mx *Ctx) {
			midReq := mx.Requires(fanPort)
			leaf = mx.Create("leaf", SetupFunc(func(lx *Ctx) {
				leafCtx = lx
				lx.Requires(fanPort)
			}))
			mx.Connect(leaf.Required(fanPort), midReq)
		}))
		ctx.Connect(srv.Provided(fanPort), mid.Required(fanPort))
	}))
	waitQuiet(t, rt)

	fanSeqs(t, srvPort, 0, 1)
	waitQuiet(t, rt)
	requireChans(t, srv, 0)

	rec := &seqRec{}
	Subscribe(leafCtx, leaf.Required(fanPort).twin(), func(ev fanEvent) { rec.add(ev.Seq) })
	fanSeqs(t, srvPort, 1, 3)
	waitQuiet(t, rt)
	assertFullSequence(t, "subscriber downstream of a pruned chain", rec.snapshot(), 1, 3)
	requireChans(t, srv, 1)
}

// TestPrunedChannelUnplugSubscribePlug: events that cross a pruned channel's
// port after it is unplugged queue in it; subscribing on a new end and
// plugging the channel there delivers them, in order, then the events
// after.
func TestPrunedChannelUnplugSubscribePlug(t *testing.T) {
	rt := newTestRuntime(t)
	srv, srvPort, clients, ctxs := pruneWorld(t, rt, "old", "new")
	ch := MustConnect(srv.Provided(fanPort), clients[0].Required(fanPort))

	fanSeqs(t, srvPort, 0, 1)
	waitQuiet(t, rt)
	requireChans(t, srv, 0)

	if err := ch.Unplug(clients[0].Required(fanPort)); err != nil {
		t.Fatal(err)
	}
	fanSeqs(t, srvPort, 1, 3)
	requireChans(t, srv, 1)
	rec := &seqRec{}
	Subscribe(ctxs[1], clients[1].Required(fanPort).twin(), func(ev fanEvent) { rec.add(ev.Seq) })
	if err := ch.Plug(clients[1].Required(fanPort)); err != nil {
		t.Fatal(err)
	}
	fanSeqs(t, srvPort, 4, 2)
	waitQuiet(t, rt)
	assertFullSequence(t, "subscriber on the plugged end", rec.snapshot(), 1, 5)
}
