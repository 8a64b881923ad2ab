package experiments

import (
	"net"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/abd"
	"repro/internal/cats"
	"repro/internal/core"
	"repro/internal/ident"
	"repro/internal/network"
)

// CodecBenchArm is one (transport, codec) cell in the wire-codec A/B
// comparison. The codec counter deltas come from the process-wide network
// metrics, snapshotted around each round — rounds run strictly
// sequentially, so the deltas attribute cleanly to their arm.
type CodecBenchArm struct {
	Transport string `json:"transport"` // "loopback" | "tcp"
	Codec     string `json:"codec"`     // "gob+zlib" | "binary"

	OpsPS float64       `json:"ops_ps"`
	P50   time.Duration `json:"p50_ns"`
	P99   time.Duration `json:"p99_ns"`

	// BinaryEncoded is the cats_network_codec_binary_encoded_total delta
	// over this arm's rounds: it must be > 0 on a binary arm (else the
	// codec never engaged and the comparison is inert) and 0 on a gob arm.
	BinaryEncoded  uint64 `json:"binary_encoded"`
	CodecFallbacks uint64 `json:"codec_fallbacks"`
	EncodedMsgs    uint64 `json:"encoded_msgs"`
	EncodedBytes   uint64 `json:"encoded_bytes"`
	FailedOps      uint64 `json:"failed_ops"`
}

// CodecBenchResult is the full four-arm comparison: {loopback, tcp} ×
// {gob+zlib, binary} on the same closed-loop quorum workload. The
// loopback pair is the gated comparison — it isolates codec cost from
// socket noise; the TCP pair demonstrates the same ordering end-to-end.
type CodecBenchResult struct {
	Nodes    int `json:"nodes"`
	Clients  int `json:"clients"`
	OpsRound int `json:"ops_round"`
	Rounds   int `json:"rounds"`

	Arms []CodecBenchArm `json:"arms"`

	// LoopbackImprovement is binary ops/s over gob+zlib ops/s minus 1 on
	// the loopback transport; TCPImprovement likewise over real sockets.
	LoopbackImprovement float64 `json:"loopback_improvement"`
	TCPImprovement      float64 `json:"tcp_improvement"`
}

// Arm returns the named cell, or nil if the result does not carry it.
func (r *CodecBenchResult) Arm(transport, codec string) *CodecBenchArm {
	for i := range r.Arms {
		if r.Arms[i].Transport == transport && r.Arms[i].Codec == codec {
			return &r.Arms[i]
		}
	}
	return nil
}

// codecArmAcc accumulates rounds for one arm.
type codecArmAcc struct {
	done    uint64
	elapsed time.Duration
	lat     []time.Duration
	failed  uint64
	delta   network.Metrics
}

func (a *codecArmAcc) add(done uint64, elapsed time.Duration, lat []time.Duration, failed uint64, before, after network.Metrics) {
	a.done += done
	a.elapsed += elapsed
	a.lat = append(a.lat, lat...)
	a.failed += failed
	a.delta.BinaryEncoded += after.BinaryEncoded - before.BinaryEncoded
	a.delta.CodecFallbacks += after.CodecFallbacks - before.CodecFallbacks
	a.delta.EncodedMsgs += after.EncodedMsgs - before.EncodedMsgs
	a.delta.EncodedBytes += after.EncodedBytes - before.EncodedBytes
}

func (a *codecArmAcc) finish(transport, codec string) CodecBenchArm {
	arm := CodecBenchArm{
		Transport:      transport,
		Codec:          codec,
		BinaryEncoded:  a.delta.BinaryEncoded,
		CodecFallbacks: a.delta.CodecFallbacks,
		EncodedMsgs:    a.delta.EncodedMsgs,
		EncodedBytes:   a.delta.EncodedBytes,
		FailedOps:      a.failed,
	}
	if a.elapsed > 0 {
		arm.OpsPS = float64(a.done) / a.elapsed.Seconds()
	}
	arm.P50, arm.P99 = percentiles(a.lat)
	return arm
}

// CodecAB runs the interleaved wire-codec comparison: the same closed-loop
// quorum put/get workload per arm, alternating which codec goes first each
// round so machine drift cancels, with one discarded warm-up round per
// transport. Loopback rounds reuse the marshalling loopback cluster with
// the registry codec swapped; TCP rounds boot a real-socket cluster whose
// transports negotiated the arm's codec at handshake.
func CodecAB(nodes, clients, opsPerRound, rounds int) CodecBenchResult {
	if nodes <= 0 {
		nodes = 3
	}
	if clients <= 0 {
		clients = 32
	}
	if opsPerRound <= 0 {
		opsPerRound = 3000
	}
	if rounds <= 0 {
		rounds = 3
	}
	res := CodecBenchResult{Nodes: nodes, Clients: clients, OpsRound: opsPerRound, Rounds: rounds}

	const gobName = "gob+zlib"
	const binName = "binary"

	runPair := func(run func(codec string) (uint64, time.Duration, []time.Duration, uint64)) (gob, bin codecArmAcc) {
		measure := func(acc *codecArmAcc, codec string) {
			before := network.GlobalMetrics()
			done, elapsed, lat, failed := run(codec)
			after := network.GlobalMetrics()
			acc.add(done, elapsed, lat, failed, before, after)
		}
		// Warm-up: one short round per codec, discarded. First contact with
		// each path pays one-time costs (gob type registration, pool fills,
		// page faults) that would otherwise bias whichever arm runs first.
		var discard codecArmAcc
		measure(&discard, gobName)
		discard = codecArmAcc{}
		measure(&discard, binName)
		for r := 0; r < rounds; r++ {
			if r%2 == 0 {
				measure(&gob, gobName)
				measure(&bin, binName)
			} else {
				measure(&bin, binName)
				measure(&gob, gobName)
			}
		}
		return gob, bin
	}

	loopRound := func(codec string) (uint64, time.Duration, []time.Duration, uint64) {
		return codecLoopbackRound(nodes, clients, opsPerRound, codec)
	}
	tcpRound := func(codec string) (uint64, time.Duration, []time.Duration, uint64) {
		return codecTCPRound(nodes, clients, opsPerRound, codec)
	}

	loGob, loBin := runPair(loopRound)
	tcGob, tcBin := runPair(tcpRound)

	res.Arms = []CodecBenchArm{
		loGob.finish("loopback", gobName),
		loBin.finish("loopback", binName),
		tcGob.finish("tcp", gobName),
		tcBin.finish("tcp", binName),
	}
	if g := res.Arm("loopback", gobName); g != nil && g.OpsPS > 0 {
		res.LoopbackImprovement = res.Arm("loopback", binName).OpsPS/g.OpsPS - 1
	}
	if g := res.Arm("tcp", gobName); g != nil && g.OpsPS > 0 {
		res.TCPImprovement = res.Arm("tcp", binName).OpsPS/g.OpsPS - 1
	}
	return res
}

// codecLoopbackRound is quorumRound with the loopback registry's wire
// codec parameterized: every frame still round-trips through encode +
// decode, so the measurement isolates codec cost on the quorum path.
func codecLoopbackRound(nodes, clients, ops int, codecName string) (done uint64, elapsed time.Duration, lat []time.Duration, failed uint64) {
	wc, ok := network.CodecByName(codecName)
	if !ok {
		panic("codec bench: unknown codec " + codecName)
	}
	registry := network.NewLoopbackRegistry(network.WithWireCodec(wc))
	host := cats.NewSimulator(cats.LoopbackEnv{Registry: registry}, kvClusterConfig())
	rt := core.New(core.WithFaultPolicy(core.LogAndContinue))
	defer rt.Shutdown()
	var exp *core.Port
	rt.MustBootstrap("Main", core.SetupFunc(func(ctx *core.Ctx) {
		c := ctx.Create("simulator", host)
		exp = c.Provided(cats.ExperimentPortType)
	}))
	rt.WaitQuiescence(5 * time.Second)
	for _, k := range spreadKeys(nodes) {
		_ = core.TriggerOn(exp, cats.JoinNode{Key: k})
		time.Sleep(10 * time.Millisecond)
	}
	waitForRing(rt, host, nodes, 30*time.Second)
	time.Sleep(500 * time.Millisecond)

	_ = core.TriggerOn(exp, cats.StartLoad{
		Clients:      clients,
		TotalOps:     ops,
		ValueSize:    256,
		ReadFraction: 0.5,
		Keys:         64,
	})
	deadline := time.Now().Add(2 * time.Minute)
	for time.Now().Before(deadline) {
		if m := host.Metrics(); int(m.LoadDone) >= ops {
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	rt.WaitQuiescence(5 * time.Second)

	m := host.Metrics()
	return m.LoadDone, m.LoadEnd.Sub(m.LoadStart), m.OpLatencies, 0
}

// codecBenchClient drives sequential closed-loop operations against one
// peer's PutGet port. Responses arrive on the component goroutine; the
// handler forwards only the in-flight request's completion, so concurrent
// clients sharing a coordinator never cross-talk or block the handler.
type codecBenchClient struct {
	target  *core.Port
	ctx     *core.Ctx
	pending atomic.Uint64
	ok      chan bool // buffered(1): true = op succeeded
}

func (c *codecBenchClient) Setup(ctx *core.Ctx) {
	c.ctx = ctx
	c.target = ctx.Requires(abd.PutGetPortType)
	core.Subscribe(ctx, c.target, func(g abd.GetResponse) {
		if g.ReqID == c.pending.Load() {
			c.ok <- g.Err == ""
		}
	})
	core.Subscribe(ctx, c.target, func(p abd.PutResponse) {
		if p.ReqID == c.pending.Load() {
			c.ok <- p.Err == ""
		}
	})
}

// run performs ops alternating put/get over a small key set, recording
// per-op latency. Timeouts surface as abd error responses (the node's
// OpTimeout fires first), so the loop always advances.
func (c *codecBenchClient) run(id, ops int, lat []time.Duration) (out []time.Duration, failed uint64) {
	out = lat
	val := make([]byte, 256)
	for i := 0; i < ops; i++ {
		key := "codec-" + strconv.Itoa((id*7+i)%64)
		reqID := cats.NextReqID()
		c.pending.Store(reqID)
		start := time.Now()
		if i%2 == 0 {
			c.ctx.Trigger(abd.PutRequest{ReqID: reqID, Key: key, Value: val}, c.target)
		} else {
			c.ctx.Trigger(abd.GetRequest{ReqID: reqID, Key: key}, c.target)
		}
		select {
		case ok := <-c.ok:
			if !ok {
				failed++
			}
		case <-time.After(30 * time.Second):
			failed++
		}
		out = append(out, time.Since(start))
	}
	return out, failed
}

// freeCodecAddr reserves a loopback port from the OS.
func freeCodecAddr() network.Address {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		panic("codec bench: reserve port: " + err.Error())
	}
	port := ln.Addr().(*net.TCPAddr).Port
	_ = ln.Close()
	return network.Address{Host: "127.0.0.1", Port: uint16(port)}
}

// codecTCPRound boots a real-socket cluster whose transports run the
// arm's wire codec (negotiated at connection handshake) and drives the
// closed-loop workload through per-client components.
func codecTCPRound(nodes, clients, ops int, codecName string) (done uint64, elapsed time.Duration, lat []time.Duration, failed uint64) {
	refs := make([]ident.NodeRef, nodes)
	for i := range refs {
		refs[i] = ident.NodeRef{Key: ident.Key(uint64(i+1) << 60), Addr: freeCodecAddr()}
	}

	rt := core.New(core.WithFaultPolicy(core.LogAndContinue))
	defer rt.Shutdown()
	env := cats.TCPEnv{WireCodec: codecName}
	peers := make([]*cats.Peer, nodes)
	cls := make([]*codecBenchClient, clients)
	rt.MustBootstrap("Main", core.SetupFunc(func(ctx *core.Ctx) {
		comps := make([]*core.Component, nodes)
		for i := range refs {
			cfg := kvClusterConfig()
			cfg.Self = refs[i]
			cfg.StabilizePeriod = 100 * time.Millisecond
			cfg.CyclonPeriod = 200 * time.Millisecond
			if i > 0 {
				cfg.Seeds = []ident.NodeRef{refs[0]}
			}
			peers[i] = cats.NewPeer(env, cfg)
			comps[i] = ctx.Create(refs[i].Addr.String(), peers[i])
		}
		for c := range cls {
			cls[c] = &codecBenchClient{ok: make(chan bool, 1)}
			comp := ctx.Create("client-"+strconv.Itoa(c), cls[c])
			ctx.Connect(comps[c%nodes].Provided(abd.PutGetPortType), comp.Required(abd.PutGetPortType))
		}
	}))

	deadline := time.Now().Add(30 * time.Second)
	for {
		joined := 0
		for _, p := range peers {
			if p.Node != nil && p.Node.Ring.Joined() && len(p.Node.Ring.Succs()) > 0 {
				joined++
			}
		}
		if joined == nodes {
			break
		}
		if time.Now().After(deadline) {
			panic("codec bench: TCP ring did not converge")
		}
		time.Sleep(50 * time.Millisecond)
	}
	time.Sleep(500 * time.Millisecond) // membership tables settle

	perClient := ops / clients
	if perClient == 0 {
		perClient = 1
	}
	lats := make([][]time.Duration, clients)
	fails := make([]uint64, clients)
	start := time.Now()
	var wg sync.WaitGroup
	for c := range cls {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			lats[c], fails[c] = cls[c].run(c, perClient, nil)
		}(c)
	}
	wg.Wait()
	elapsed = time.Since(start)

	for c := range lats {
		lat = append(lat, lats[c]...)
		failed += fails[c]
		done += uint64(len(lats[c]))
	}
	done -= failed
	return done, elapsed, lat, failed
}
