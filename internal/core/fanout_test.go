package core

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"
)

// Tests for broadcast delivery (one event crossing a port with several
// attached channels), its interaction with channel Hold/Resume and hot
// swap, and the steal batch policy. The concurrency tests here are the
// per-channel ordering oracle of §2.6: every client must observe the exact
// trigger sequence — no loss, no duplication, no reordering — however the
// broadcast is interrupted by reconfiguration.

type fanEvent struct{ Seq int }

var fanPort = NewPortType("Fan", Indication[fanEvent]())

// seqRec records the sequence numbers one client observed, in arrival order.
type seqRec struct {
	mu   sync.Mutex
	seqs []int
}

func (r *seqRec) add(s int) {
	r.mu.Lock()
	r.seqs = append(r.seqs, s)
	r.mu.Unlock()
}

func (r *seqRec) snapshot() []int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]int(nil), r.seqs...)
}

// fanClient is a swappable subscriber that records into an external seqRec,
// so a replacement instance continues the same record.
type fanClient struct{ rec *seqRec }

func (d *fanClient) Setup(ctx *Ctx) {
	p := ctx.Requires(fanPort)
	rec := d.rec
	Subscribe(ctx, p, func(ev fanEvent) { rec.add(ev.Seq) })
}

// fanWorld wires one broadcasting server to n recording clients, each over
// its own channel, and returns the server's inner port to trigger on.
func fanWorld(t *testing.T, rt *Runtime, n int) (srvPort *Port, rootCtx *Ctx, clients []*Component, chans []*Channel, recs []*seqRec) {
	t.Helper()
	recs = make([]*seqRec, n)
	clients = make([]*Component, n)
	chans = make([]*Channel, n)
	rt.MustBootstrap("Main", SetupFunc(func(ctx *Ctx) {
		rootCtx = ctx
		srv := ctx.Create("server", SetupFunc(func(sx *Ctx) {
			srvPort = sx.Provides(fanPort)
		}))
		for i := 0; i < n; i++ {
			recs[i] = &seqRec{}
			clients[i] = ctx.Create(fmt.Sprintf("c%d", i), &fanClient{rec: recs[i]})
			chans[i] = ctx.Connect(srv.Provided(fanPort), clients[i].Required(fanPort))
		}
	}))
	waitQuiet(t, rt)
	return
}

// assertFullSequence is the ordering oracle: who observed exactly
// first, first+1, ..., first+total-1, in order.
func assertFullSequence(t *testing.T, who string, got []int, first, total int) {
	t.Helper()
	if len(got) != total {
		t.Fatalf("%s: received %d events, want %d (loss or duplication)", who, len(got), total)
	}
	for j, s := range got {
		if s != first+j {
			t.Fatalf("%s: position %d holds seq %d, want %d (reordered)", who, j, s, first+j)
		}
	}
}

// TestHoldResumeDuringBroadcast flaps Hold/Resume on a subset of the
// channels while a broadcast storm is in flight. Held channels must queue
// every event and Resume must replay them in order, so every client still
// observes the unbroken trigger sequence.
func TestHoldResumeDuringBroadcast(t *testing.T) {
	rt := newTestRuntime(t)
	const nClients = 8
	const total = 2000
	srvPort, _, _, chans, recs := fanWorld(t, rt, nClients)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			chans[0].Hold()
			chans[3].Hold()
			runtime.Gosched()
			chans[0].Resume()
			chans[3].Resume()
			runtime.Gosched()
		}
	}()

	for seq := 0; seq < total; seq++ {
		if err := TriggerOn(srvPort, fanEvent{Seq: seq}); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	for _, ch := range chans {
		ch.Resume()
	}
	waitQuiet(t, rt)

	for i, rec := range recs {
		assertFullSequence(t, fmt.Sprintf("client %d", i), rec.snapshot(), 0, total)
	}
}

// TestSwapDuringBroadcast hot-swaps one client while broadcasts are in
// flight. The swap recipe (hold, unplug, migrate queued events, resume)
// must neither lose nor duplicate nor reorder any event, for the swapped
// slot or for the bystander clients.
func TestSwapDuringBroadcast(t *testing.T) {
	rt := newTestRuntime(t)
	const nClients = 4
	const total = 1600
	srvPort, rootCtx, clients, _, recs := fanWorld(t, rt, nClients)

	done := make(chan struct{})
	go func() {
		defer close(done)
		for seq := 0; seq < total; seq++ {
			if err := TriggerOn(srvPort, fanEvent{Seq: seq}); err != nil {
				panic(err)
			}
			if seq == total/2 {
				time.Sleep(time.Millisecond)
			}
		}
	}()
	time.Sleep(200 * time.Microsecond)
	if _, err := rootCtx.Swap(clients[0], "c0v2", &fanClient{rec: recs[0]}); err != nil {
		t.Fatalf("swap: %v", err)
	}
	<-done
	waitQuiet(t, rt)

	for i, rec := range recs {
		assertFullSequence(t, fmt.Sprintf("client %d", i), rec.snapshot(), 0, total)
	}
}

// TestStealBatchPolicyOpCounts is the deterministic core of the paper's C3
// claim (batched stealing moves the same work in far fewer steal
// operations): one thread drains a preloaded victim deque through the
// thief's real steal path under steal-one and steal-half, with no worker
// goroutines running, so the operation counts are exact.
func TestStealBatchPolicyOpCounts(t *testing.T) {
	const preload = 64
	cases := []struct {
		name      string
		batch     func(n int64) int64
		steals    uint64
		thiefLeft int64 // stolen components queued on the thief, not yet run
	}{
		// One steal operation per component.
		{"one", func(int64) int64 { return 1 }, preload, 0},
		// Halving 64: 32+16+8+4+2+1, then the last one (n/2 = 0 rounds up to 1).
		{"half", func(n int64) int64 { return n / 2 }, 7, preload - 7},
	}
	for _, c := range cases {
		s := NewWorkStealingScheduler(2, WithStealBatch(c.batch))
		rt := &Runtime{scheduler: s}
		victim, thief := s.workers[0], s.workers[1]
		for i := 0; i < preload; i++ {
			victim.deque.push(&Component{rt: rt})
		}
		for thief.steal() {
		}
		_, steals, stolen := s.Stats()
		if steals != c.steals || stolen != preload {
			t.Errorf("steal-%s: %d steal ops moved %d components, want %d ops moving %d",
				c.name, steals, stolen, c.steals, preload)
		}
		if victim.deque.size() != 0 || thief.deque.size() != c.thiefLeft {
			t.Errorf("steal-%s: victim holds %d, thief %d; want 0 and %d",
				c.name, victim.deque.size(), thief.deque.size(), c.thiefLeft)
		}
	}
}

// BenchmarkStealPingPong measures the steal round trip against a
// repeatedly-refilled shallow victim whose deque once ran deep: owner and
// thief alternate one FIFO pop and one steal of half the remaining
// components, the default batch policy.
func BenchmarkStealPingPong(b *testing.B) {
	d := newWSDeque()
	c := &Component{}
	// Establish a deep high-water mark, then drain to the shallow phase.
	for i := 0; i < 256; i++ {
		d.push(c)
	}
	for d.pop() != nil {
	}
	var buf []*Component
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for k := 0; k < 4; k++ {
			d.push(c)
		}
		for d.size() > 0 {
			if d.pop() == nil {
				break
			}
			buf = d.stealInto(buf[:0], d.size()/2)
		}
	}
}
