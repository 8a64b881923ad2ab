package repro

// Framework microbenchmarks for the design choices the paper calls out:
// dispatch, fan-out, scheduling, serialization, simulation and hot swap.
// The paper's evaluation tables are not benchmarks: `go run ./cmd/catssim
// run paper` regenerates them (EXPERIMENTS.md is its output).

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/network"
	"repro/internal/simulation"
)

type benchPing struct{ N int }
type benchPong struct{ N int }

var benchPP = core.NewPortType("BenchPP",
	core.Request[benchPing](),
	core.Indication[benchPong](),
)

// BenchmarkEventDispatch measures one-way event delivery and handler
// execution through a port and channel (the runtime's hot path).
func BenchmarkEventDispatch(b *testing.B) {
	rt := core.New(core.WithScheduler(core.NewWorkStealingScheduler(2)))
	defer rt.Shutdown()
	var handled atomic.Int64
	done := make(chan struct{}, 1)
	target := int64(0)
	var port *core.Port
	rt.MustBootstrap("Main", core.SetupFunc(func(ctx *core.Ctx) {
		c := ctx.Create("sink", core.SetupFunc(func(cx *core.Ctx) {
			p := cx.Provides(benchPP)
			core.Subscribe(cx, p, func(benchPing) {
				if handled.Add(1) == atomic.LoadInt64(&target) {
					done <- struct{}{}
				}
			})
		}))
		port = c.Provided(benchPP)
	}))
	rt.WaitQuiescence(time.Second)

	handled.Store(0)
	atomic.StoreInt64(&target, int64(b.N))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = core.TriggerOn(port, benchPing{N: i})
	}
	<-done
}

// BenchmarkDispatchAllocs proves the steady-state dispatch path is
// allocation-free: routing-table hit, workItem into the component ring,
// deque push — no allocation anywhere. The event value is boxed once
// outside the loop, because converting a fresh struct to the Event
// interface each iteration would charge the benchmark one allocation that
// belongs to the caller, not to dispatch. The deque itself has dedicated
// microbenchmarks in internal/core (BenchmarkWSDequeStealHalf et al.).
func BenchmarkDispatchAllocs(b *testing.B) {
	rt := core.New(core.WithScheduler(core.NewWorkStealingScheduler(2)))
	defer rt.Shutdown()
	var handled atomic.Int64
	done := make(chan struct{}, 1)
	target := int64(0)
	var port *core.Port
	rt.MustBootstrap("Main", core.SetupFunc(func(ctx *core.Ctx) {
		c := ctx.Create("sink", core.SetupFunc(func(cx *core.Ctx) {
			p := cx.Provides(benchPP)
			core.Subscribe(cx, p, func(benchPing) {
				if handled.Add(1) == atomic.LoadInt64(&target) {
					done <- struct{}{}
				}
			})
		}))
		port = c.Provided(benchPP)
	}))
	rt.WaitQuiescence(time.Second)

	// Warm up: populate the routing table and grow the queue rings once.
	var ev core.Event = benchPing{N: 7}
	atomic.StoreInt64(&target, 1)
	handled.Store(0)
	_ = core.TriggerOn(port, ev)
	<-done
	rt.WaitQuiescence(time.Second)

	handled.Store(0)
	atomic.StoreInt64(&target, int64(b.N))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = core.TriggerOn(port, ev)
	}
	<-done
}

// BenchmarkPingPongRoundTrip measures a request/indication round trip
// between two components (two dispatches + two handler executions).
func BenchmarkPingPongRoundTrip(b *testing.B) {
	rt := core.New(core.WithScheduler(core.NewWorkStealingScheduler(2)))
	defer rt.Shutdown()
	done := make(chan struct{})
	var clientPort *core.Port
	var cx *core.Ctx
	total := b.N
	rt.MustBootstrap("Main", core.SetupFunc(func(ctx *core.Ctx) {
		srv := ctx.Create("server", core.SetupFunc(func(sx *core.Ctx) {
			p := sx.Provides(benchPP)
			core.Subscribe(sx, p, func(pg benchPing) {
				sx.Trigger(benchPong{N: pg.N}, p)
			})
		}))
		cli := ctx.Create("client", core.SetupFunc(func(inner *core.Ctx) {
			cx = inner
			clientPort = inner.Requires(benchPP)
			core.Subscribe(inner, clientPort, func(pg benchPong) {
				if pg.N >= total {
					close(done)
					return
				}
				inner.Trigger(benchPing{N: pg.N + 1}, clientPort)
			})
		}))
		ctx.Connect(srv.Provided(benchPP), cli.Required(benchPP))
	}))
	rt.WaitQuiescence(time.Second)

	b.ResetTimer()
	cx.Trigger(benchPing{N: 1}, clientPort)
	<-done
}

// BenchmarkChannelFanout measures publish-subscribe fan-out cost per
// connected channel (paper Figure 6).
func BenchmarkChannelFanout(b *testing.B) {
	for _, subs := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("subscribers=%d", subs), func(b *testing.B) {
			rt := core.New(core.WithScheduler(core.NewWorkStealingScheduler(2)))
			defer rt.Shutdown()
			var handled atomic.Int64
			done := make(chan struct{}, 1)
			var srvPort *core.Port
			var srvCtx *core.Ctx
			target := int64(b.N) * int64(subs)
			rt.MustBootstrap("Main", core.SetupFunc(func(ctx *core.Ctx) {
				srv := ctx.Create("server", core.SetupFunc(func(sx *core.Ctx) {
					srvCtx = sx
					srvPort = sx.Provides(benchPP)
				}))
				for i := 0; i < subs; i++ {
					cli := ctx.Create(fmt.Sprintf("c%d", i), core.SetupFunc(func(inner *core.Ctx) {
						p := inner.Requires(benchPP)
						core.Subscribe(inner, p, func(benchPong) {
							if handled.Add(1) == target {
								done <- struct{}{}
							}
						})
					}))
					ctx.Connect(srv.Provided(benchPP), cli.Required(benchPP))
				}
			}))
			rt.WaitQuiescence(time.Second)

			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				srvCtx.Trigger(benchPong{N: i}, srvPort)
			}
			<-done
		})
	}
}

// BenchmarkFanout measures broadcast fan-out: one trigger crossing a port
// pair with N attached channels, each leading to a distinct subscriber
// component (one delivery per channel hop). Reported time is per
// broadcast (N deliveries + N handler executions); the dispatch side must
// stay allocation-free (TestFanoutZeroAlloc gates that in CI).
func BenchmarkFanout(b *testing.B) {
	for _, subs := range []int{16, 64, 256} {
		b.Run(fmt.Sprint(subs), func(b *testing.B) {
			rt := core.New(core.WithScheduler(core.NewWorkStealingScheduler(2)))
			defer rt.Shutdown()
			var handled atomic.Int64
			done := make(chan struct{}, 1)
			var srvPort *core.Port
			var srvCtx *core.Ctx
			target := int64(b.N) * int64(subs)
			rt.MustBootstrap("Main", core.SetupFunc(func(ctx *core.Ctx) {
				srv := ctx.Create("server", core.SetupFunc(func(sx *core.Ctx) {
					srvCtx = sx
					srvPort = sx.Provides(benchPP)
				}))
				for i := 0; i < subs; i++ {
					cli := ctx.Create(fmt.Sprintf("c%d", i), core.SetupFunc(func(inner *core.Ctx) {
						p := inner.Requires(benchPP)
						core.Subscribe(inner, p, func(benchPong) {
							if handled.Add(1) == target {
								done <- struct{}{}
							}
						})
					}))
					ctx.Connect(srv.Provided(benchPP), cli.Required(benchPP))
				}
			}))
			rt.WaitQuiescence(time.Second)

			// Warm up routing plans and queue rings; box the event once so
			// interface conversion isn't charged to dispatch.
			var ev core.Event = benchPong{N: 0}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				srvCtx.Trigger(ev, srvPort)
			}
			<-done
		})
	}
}

// BenchmarkSchedulerWorkers measures event throughput over many components
// as worker count grows (multi-core execution; flat on single-core hosts).
func BenchmarkSchedulerWorkers(b *testing.B) {
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			rt := core.New(core.WithScheduler(core.NewWorkStealingScheduler(workers)))
			defer rt.Shutdown()
			const comps = 64
			var handled atomic.Int64
			done := make(chan struct{}, 1)
			target := int64(b.N)
			ports := make([]*core.Port, comps)
			rt.MustBootstrap("Main", core.SetupFunc(func(ctx *core.Ctx) {
				for i := 0; i < comps; i++ {
					c := ctx.Create(fmt.Sprintf("c%d", i), core.SetupFunc(func(cx *core.Ctx) {
						p := cx.Provides(benchPP)
						core.Subscribe(cx, p, func(benchPing) {
							if handled.Add(1) == target {
								done <- struct{}{}
							}
						})
					}))
					ports[i] = c.Provided(benchPP)
				}
			}))
			rt.WaitQuiescence(time.Second)

			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_ = core.TriggerOn(ports[i%comps], benchPing{})
			}
			<-done
		})
	}
}

// BenchmarkNetworkSerialization measures an encode + decode of a 1 KiB
// message through each registered wire codec (the pluggable-codec design).
// The message has no binary wire encoding, so the binary row measures that
// codec's gob fallback.
func BenchmarkNetworkSerialization(b *testing.B) {
	payload := make([]byte, 1024)
	for i := range payload {
		payload[i] = byte(i % 7) // mildly compressible
	}
	msg := benchNetMsg{
		Header:  network.NewHeader(network.Address{Host: "a", Port: 1}, network.Address{Host: "b", Port: 2}),
		Payload: payload,
	}
	for _, name := range network.CodecNames() {
		codec, _ := network.CodecByName(name)
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				payload, err := codec.Encode(msg)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := network.DecodePayload(payload); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

type benchNetMsg struct {
	network.Header
	Payload []byte
}

func init() {
	network.Register(benchNetMsg{})
}

// BenchmarkSimulatorEventRate measures the raw discrete-event throughput
// of the deterministic simulation engine. Each event allocates only its
// cancel handle (1 alloc/op).
func BenchmarkSimulatorEventRate(b *testing.B) {
	b.ReportAllocs()
	sim := simulation.New(1)
	n := 0
	var chain func()
	chain = func() {
		n++
		if n < b.N {
			sim.ScheduleAt(time.Microsecond, chain)
		}
	}
	b.ResetTimer()
	sim.ScheduleAt(0, chain)
	sim.Run(0)
	if n < b.N {
		b.Fatalf("ran %d of %d events", n, b.N)
	}
}

// BenchmarkReconfigurationSwap measures the cost of a full §2.6 hot swap
// (hold + unplug + create + plug + resume + state transfer + destroy).
func BenchmarkReconfigurationSwap(b *testing.B) {
	rt := core.New(core.WithScheduler(core.NewWorkStealingScheduler(2)))
	defer rt.Shutdown()
	var rootCtx *core.Ctx
	cur := (*core.Component)(nil)
	rt.MustBootstrap("Main", core.SetupFunc(func(ctx *core.Ctx) {
		rootCtx = ctx
		cur = ctx.Create("v0", &swapTarget{})
		sink := ctx.Create("sink", core.SetupFunc(func(cx *core.Ctx) {
			cx.Requires(benchPP)
		}))
		ctx.Connect(cur.Provided(benchPP), sink.Required(benchPP))
	}))
	rt.WaitQuiescence(time.Second)

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		next, err := rootCtx.Swap(cur, fmt.Sprintf("v%d", i+1), &swapTarget{})
		if err != nil {
			b.Fatal(err)
		}
		cur = next
	}
}

// swapTarget is a minimal stateful component for swap benchmarking.
type swapTarget struct {
	state int
}

func (s *swapTarget) Setup(ctx *core.Ctx) {
	p := ctx.Provides(benchPP)
	core.Subscribe(ctx, p, func(benchPing) { s.state++ })
}

func (s *swapTarget) DumpState() any      { return s.state }
func (s *swapTarget) LoadState(state any) { s.state = state.(int) }
