package repro

// Benchmarks regenerating the paper's evaluation artifacts (see DESIGN.md
// §3 and EXPERIMENTS.md), plus framework microbenchmarks for the design
// choices the paper calls out. Macro experiments (whole-cluster runs) take
// seconds per iteration, so testing.B typically settles at N=1; their
// results are conveyed via b.ReportMetric. `catssim run paper` prints the
// same experiments as paper-style tables.

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cats"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/ident"
	"repro/internal/network"
	"repro/internal/simulation"
)

// --- Experiment benchmarks (one per table/figure) ------------------------------

// BenchmarkTable1TimeCompression reproduces Table 1: the simulated-to-real
// time ratio when simulating whole systems of N peers (paper: 475x at 64
// peers decaying to ~1x at 16384, for 4275 s of simulated time).
func BenchmarkTable1TimeCompression(b *testing.B) {
	for _, peers := range []int{64, 128, 256} {
		b.Run(fmt.Sprintf("peers=%d", peers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				r := experiments.Table1(2012, peers, 20*time.Second)
				b.ReportMetric(r.Compression, "x-compression")
				b.ReportMetric(float64(r.DiscreteEvents), "discrete-events")
			}
		})
	}
}

// BenchmarkC1OperationLatency reproduces the paper's §4.1 sub-millisecond
// end-to-end get/put latency claim on an in-process cluster with full
// per-message serialization (replication degree 5, as deployed on the
// paper's LAN).
func BenchmarkC1OperationLatency(b *testing.B) {
	for _, repl := range []int{3, 5} {
		b.Run(fmt.Sprintf("replication=%d", repl), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				r := experiments.Latency(8, repl, 1024, 300, "binary")
				b.ReportMetric(float64(r.Mean.Microseconds()), "mean-us/op")
				b.ReportMetric(float64(r.P99.Microseconds()), "p99-us/op")
				b.ReportMetric(100*r.SubMilli, "%sub-ms")
			}
		})
	}
}

// BenchmarkC2ThroughputScaling reproduces the paper's §4.1 scalability
// claim: aggregate read throughput grows near-linearly with cluster size
// (paper: ~100,000 reads/s at 96 machines). Throughput here is virtual-
// time ops/s of the simulated cluster; the reproduction target is the
// shape (per-node throughput roughly constant as nodes grow).
func BenchmarkC2ThroughputScaling(b *testing.B) {
	for _, nodes := range []int{8, 16, 32} {
		b.Run(fmt.Sprintf("nodes=%d", nodes), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				r := experiments.Scaling(2012, nodes, 8, 150)
				b.ReportMetric(r.ThroughputPS, "ops/s")
				b.ReportMetric(r.PerNodePS, "ops/s/node")
			}
		})
	}
}

// BenchmarkC3StealBatching reproduces the paper's §3 work-stealing design
// claim: stealing a batch of half the victim's queue versus stealing one
// component at a time, under maximal placement imbalance. On multi-core
// hosts batching wins on wall clock; on any host the steal-operation count
// collapses by orders of magnitude (the mechanism the paper describes).
func BenchmarkC3StealBatching(b *testing.B) {
	workers := runtime.NumCPU()
	if workers < 4 {
		workers = 4
	}
	for _, batchHalf := range []bool{false, true} {
		name := "batch=one"
		if batchHalf {
			name = "batch=half"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				r := experiments.Stealing(workers, 256, 500, batchHalf)
				b.ReportMetric(r.EventsPerMS, "events/ms")
				b.ReportMetric(float64(r.Steals), "steal-ops")
			}
		})
	}
}

// --- Framework microbenchmarks ---------------------------------------------------

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
// component (the batched-forwarding hot path). Reported time is per
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
			sim.ScheduleAt(time.Microsecond, "e", chain)
		}
	}
	b.ResetTimer()
	sim.ScheduleAt(0, "start", chain)
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

// BenchmarkABDOperation measures the wall cost of one linearizable
// operation driven through a simulated 5-node cluster (simulator + full
// protocol stack, virtual network).
func BenchmarkABDOperation(b *testing.B) {
	c := cats.NewSimCluster(7, cats.NodeConfig{
		FDInterval:      time.Second,
		StabilizePeriod: time.Second,
		CyclonPeriod:    2 * time.Second,
		OpTimeout:       2 * time.Second,
	}, "", []simulation.EmulatorOption{simulation.WithLatency(simulation.ConstantLatency(time.Millisecond))})
	var keys []ident.Key
	for i := 0; i < 5; i++ {
		keys = append(keys, ident.Key(uint64(i+1)<<60))
	}
	c.Join(keys)

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = core.TriggerOn(c.Exp, cats.OpPut{
			NodeKey: ident.Key(uint64(i)),
			Key:     fmt.Sprintf("bench-%d", i%64),
			Value:   []byte("value"),
		})
		c.Sim.Run(10 * time.Second)
	}
	b.StopTimer()
	m := c.Host.Metrics()
	if m.PutsFailed > 0 {
		b.Fatalf("%d puts failed", m.PutsFailed)
	}
}
