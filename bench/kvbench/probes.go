package main

import (
	"fmt"
	"math/rand"
	"os"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/kvstore"
	"repro/internal/network"
	"repro/internal/router"
)

// Probes time one layer's public functions directly, outside the cluster,
// so a layer has a number of its own that does not depend on the others.
// Each takes a fraction of a second and runs in traced runs only.

// --- core: dispatch and fan-out, built as the root bench_test.go builds them.

type probeEvent struct{ N int }

var probePort = core.NewPortType("KVBenchProbe",
	core.Request[probeEvent](),
	core.Indication[probeEvent](),
)

// probeDispatch is the cost of one event through a port into a handler.
func probeDispatch(tr *tracer, events int) float64 {
	defer tr.probeSpan("core.dispatch", time.Now())
	rt := core.New(core.WithScheduler(core.NewWorkStealingScheduler(2)))
	defer rt.Shutdown()
	var handled atomic.Int64
	done := make(chan struct{}, 1)
	var port *core.Port
	rt.MustBootstrap("Main", core.SetupFunc(func(ctx *core.Ctx) {
		port = ctx.Create("sink", core.SetupFunc(func(cx *core.Ctx) {
			p := cx.Provides(probePort)
			core.Subscribe(cx, p, func(probeEvent) {
				if handled.Add(1) == int64(events) {
					done <- struct{}{}
				}
			})
		})).Provided(probePort)
	}))
	rt.WaitQuiescence(time.Second)
	var ev core.Event = probeEvent{}
	start := time.Now()
	for i := 0; i < events; i++ {
		_ = core.TriggerOn(port, ev) // the port accepts probeEvent by construction
	}
	<-done
	return float64(time.Since(start).Nanoseconds()) / float64(events)
}

// probeFanout is the cost of one broadcast to 64 subscriber components.
func probeFanout(tr *tracer, broadcasts int) float64 {
	defer tr.probeSpan("core.fanout64", time.Now())
	const subs = 64
	rt := core.New(core.WithScheduler(core.NewWorkStealingScheduler(2)))
	defer rt.Shutdown()
	var handled atomic.Int64
	done := make(chan struct{}, 1)
	var srvPort *core.Port
	var srvCtx *core.Ctx
	rt.MustBootstrap("Main", core.SetupFunc(func(ctx *core.Ctx) {
		srv := ctx.Create("server", core.SetupFunc(func(sx *core.Ctx) {
			srvCtx = sx
			srvPort = sx.Provides(probePort)
		}))
		for i := 0; i < subs; i++ {
			cli := ctx.Create(fmt.Sprintf("c%d", i), core.SetupFunc(func(cx *core.Ctx) {
				core.Subscribe(cx, cx.Requires(probePort), func(probeEvent) {
					if handled.Add(1) == int64(broadcasts*subs) {
						done <- struct{}{}
					}
				})
			}))
			ctx.Connect(srv.Provided(probePort), cli.Required(probePort))
		}
	}))
	rt.WaitQuiescence(time.Second)
	var ev core.Event = probeEvent{}
	start := time.Now()
	for i := 0; i < broadcasts; i++ {
		srvCtx.Trigger(ev, srvPort)
	}
	<-done
	return float64(time.Since(start).Microseconds()) / float64(broadcasts)
}

// --- network: one message through each codec and back.

// probeMsg is shaped like the write phase of a 256-byte put. It is the
// benchmark's own type on an otherwise unused wire tag, so the probe goes
// through every codec's real encode and decode path.
type probeMsg struct {
	network.Header
	OpID    uint64
	Attempt int
	Epoch   uint64
	Key     string
	Seq     uint64
	Writer  uint64
	Value   []byte
}

const probeWireTag byte = 0xF0

func (m probeMsg) WireTag() byte { return probeWireTag }

func (m probeMsg) AppendWire(dst []byte) []byte {
	dst = network.AppendHeader(dst, m.Header)
	dst = network.AppendU64(dst, m.OpID)
	dst = network.AppendI64(dst, int64(m.Attempt))
	dst = network.AppendU64(dst, m.Epoch)
	dst = network.AppendString(dst, m.Key)
	dst = network.AppendU64(dst, m.Seq)
	dst = network.AppendU64(dst, m.Writer)
	return network.AppendBytes(dst, m.Value)
}

func init() {
	network.Register(probeMsg{})
	network.RegisterWire(probeWireTag, "kvbench.probe", func(r *network.WireReader) (network.Message, error) {
		m := probeMsg{Header: r.Header(), OpID: r.U64(), Attempt: int(r.I64()), Epoch: r.U64(),
			Key: r.String(), Seq: r.U64(), Writer: r.U64(), Value: r.Bytes()}
		return m, r.Err()
	})
}

func probeCodec(tr *tracer, name string, data *dataset, rounds int) (float64, error) {
	defer tr.probeSpan("network.roundtrip."+name, time.Now())
	codec, ok := network.CodecByName(name)
	if !ok {
		return 0, fmt.Errorf("no wire codec %q", name)
	}
	msg := probeMsg{
		Header: network.NewHeader(network.Address{Host: "127.0.0.1", Port: 7001}, network.Address{Host: "127.0.0.1", Port: 7002}),
		OpID:   77, Attempt: 1, Epoch: 3, Key: data.keys[0], Seq: 9, Writer: 2,
		Value: data.filler[:256],
	}
	start := time.Now()
	for i := 0; i < rounds; i++ {
		payload, err := codec.Encode(msg)
		if err != nil {
			return 0, err
		}
		back, err := network.DecodePayload(payload)
		if err != nil {
			return 0, err
		}
		if got, ok := back.(probeMsg); !ok || got.Key != msg.Key || len(got.Value) != len(msg.Value) {
			return 0, fmt.Errorf("codec %s: round trip changed the message", name)
		}
	}
	return float64(time.Since(start).Nanoseconds()) / float64(rounds), nil
}

// --- kvstore: reads and applies on a store of the workload's size.

func probeStore(tr *tracer, pl map[string]float64, w workload, data *dataset, tmp string, rounds int) error {
	start := time.Now()
	mem := kvstore.New()
	value := data.filler[:w.valueSize]
	for _, k := range data.keys {
		mem.Apply(k, kvstore.Version{Seq: 1}, value)
	}
	rng := rand.New(rand.NewSource(1))
	order := make([]int, rounds)
	for i := range order {
		order[i] = rng.Intn(len(data.keys))
	}
	t0 := time.Now()
	for _, k := range order {
		mem.Read(data.keys[k])
	}
	pl["kvstore.read_ns"] = float64(time.Since(t0).Nanoseconds()) / float64(rounds)
	t0 = time.Now()
	for i, k := range order {
		mem.Apply(data.keys[k], kvstore.Version{Seq: uint64(i + 2)}, value)
	}
	pl["kvstore.apply_ns"] = float64(time.Since(t0).Nanoseconds()) / float64(rounds)
	tr.probeSpan("kvstore.memory", start)
	if !w.durable {
		return nil
	}

	// The same applies through the WAL, under the workload's sync policy.
	defer tr.probeSpan("kvstore.durable", time.Now())
	dir, err := os.MkdirTemp(tmp, "probe-")
	if err != nil {
		return err
	}
	st, err := kvstore.Open(dir, kvstore.Options{Sync: kvstore.SyncInterval, SyncEvery: 2 * time.Millisecond})
	if err != nil {
		return err
	}
	t0 = time.Now()
	for i, k := range order {
		if ok, err := st.ApplyDurable(data.keys[k], kvstore.Version{Seq: uint64(i + 1)}, value); err != nil || !ok {
			_ = st.Close() // the apply error is the one to report
			return fmt.Errorf("durable apply: applied=%v err=%v", ok, err)
		}
	}
	pl["kvstore.apply_durable_us"] = float64(time.Since(t0).Microseconds()) / float64(rounds)
	return st.Close()
}

// --- router: a lookup on the peer's Router port, through a channel that
// exists only while the probe runs.

type lookupCmd struct{ n int }

func probeLookup(tr *tracer, cl *cluster, rounds int) (float64, error) {
	defer tr.probeSpan("router.lookup", time.Now())
	ch := core.MustConnect(cl.peerComps[0].Provided(router.PortType), cl.clientComps[0].Required(router.PortType))
	defer ch.Disconnect()
	if err := core.TriggerOn(cl.ctls[0], lookupCmd{n: rounds}); err != nil {
		return 0, err
	}
	select {
	case d := <-cl.clients[0].lookupDone:
		return float64(d.Microseconds()) / float64(rounds), nil
	case <-time.After(30 * time.Second):
		return 0, fmt.Errorf("lookup probe timed out")
	}
}

// runClusterProbes runs the probes that need the live, drained cluster.
func runClusterProbes(tr *tracer, pl map[string]float64, cl *cluster) error {
	us, err := probeLookup(tr, cl, 20_000)
	pl["router.lookup_us"] = us
	return err
}

// runProbes runs the probes that need no cluster.
func runProbes(tr *tracer, pl map[string]float64, w workload, cfg config, data *dataset, tmp string) error {
	scale := cfg.probeScale
	pl["core.dispatch_ns"] = probeDispatch(tr, 200_000/scale)
	pl["core.fanout64_us"] = probeFanout(tr, 2_000/scale)
	for metric, codec := range map[string]string{
		"network.roundtrip_ns_gob":     "gob",
		"network.roundtrip_ns_gobzlib": "gob+zlib",
		"network.roundtrip_ns_binary":  "binary",
	} {
		ns, err := probeCodec(tr, codec, data, 10_000/scale)
		if err != nil {
			return err
		}
		pl[metric] = ns
	}
	return probeStore(tr, pl, w, data, tmp, 200_000/scale)
}
