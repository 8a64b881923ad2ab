package cats

import (
	"net"
	"testing"
	"time"

	"repro/internal/abd"
	"repro/internal/core"
	"repro/internal/ident"
	"repro/internal/network"
)

// freeTCPAddr reserves a loopback port from the OS.
func freeTCPAddr(t *testing.T) network.Address {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	port := ln.Addr().(*net.TCPAddr).Port
	_ = ln.Close()
	return network.Address{Host: "127.0.0.1", Port: uint16(port)}
}

// tcpClient drives PutGet against a peer over channels.
type tcpClient struct {
	target *core.Port
	ctx    *core.Ctx
	gets   chan abd.GetResponse
	puts   chan abd.PutResponse
}

func (c *tcpClient) Setup(ctx *core.Ctx) {
	c.ctx = ctx
	c.target = ctx.Requires(abd.PutGetPortType)
	core.Subscribe(ctx, c.target, func(g abd.GetResponse) { c.gets <- g })
	core.Subscribe(ctx, c.target, func(p abd.PutResponse) { c.puts <- p })
}

// bootTCPCluster starts a 3-node CATS cluster over real TCP sockets on
// localhost with the environment's defaults — the full production path:
// dial-on-demand connection management, length-prefixed framing, the
// binary wire codec — and waits until the cluster is ready (AwaitReady).
func bootTCPCluster(t *testing.T) []*tcpClient {
	t.Helper()
	const n = 3
	refs := make([]ident.NodeRef, n)
	for i := range refs {
		refs[i] = ident.NodeRef{Key: ident.Key(uint64(i+1) << 60), Addr: freeTCPAddr(t)}
	}

	rt := core.New(core.WithFaultPolicy(core.LogAndContinue))
	t.Cleanup(rt.Shutdown)
	env := TCPEnv{}
	peers := make([]*Peer, n)
	clients := make([]*tcpClient, n)
	rt.MustBootstrap("Main", core.SetupFunc(func(ctx *core.Ctx) {
		for i := range refs {
			cfg := NodeConfig{
				Self:              refs[i],
				ReplicationDegree: 3,
				FDInterval:        200 * time.Millisecond,
				StabilizePeriod:   100 * time.Millisecond,
				CyclonPeriod:      200 * time.Millisecond,
				OpTimeout:         2 * time.Second,
			}
			if i > 0 {
				cfg.Seeds = []ident.NodeRef{refs[0]}
			}
			peers[i] = NewPeer(env, cfg)
			comp := ctx.Create(refs[i].Addr.String(), peers[i])
			clients[i] = &tcpClient{
				gets: make(chan abd.GetResponse, 4),
				puts: make(chan abd.PutResponse, 4),
			}
			cl := ctx.Create("client-"+refs[i].Addr.String(), clients[i])
			ctx.Connect(comp.Provided(abd.PutGetPortType), cl.Required(abd.PutGetPortType))
		}
	}))

	if err := AwaitReady(peers, 30*time.Second); err != nil {
		t.Fatal(err)
	}
	return clients
}

// TestProductionTCPCluster performs linearizable puts and gets across
// coordinators of a cluster on real sockets.
func TestProductionTCPCluster(t *testing.T) {
	if testing.Short() {
		t.Skip("real sockets")
	}
	clients := bootTCPCluster(t)

	// Put via node 0, get via node 2.
	clients[0].ctx.Trigger(abd.PutRequest{ReqID: NextReqID(), Key: "tcp-key", Value: []byte("over-sockets")}, clients[0].target)
	select {
	case resp := <-clients[0].puts:
		if resp.Err != "" {
			t.Fatalf("put: %s", resp.Err)
		}
	case <-time.After(20 * time.Second):
		t.Fatal("put timed out")
	}
	clients[2].ctx.Trigger(abd.GetRequest{ReqID: NextReqID(), Key: "tcp-key"}, clients[2].target)
	select {
	case resp := <-clients[2].gets:
		if resp.Err != "" || !resp.Found || string(resp.Value) != "over-sockets" {
			t.Fatalf("get: %+v", resp)
		}
	case <-time.After(20 * time.Second):
		t.Fatal("get timed out")
	}
}

// TestSteadyStateNoGobFallback gates the "one hot wire path" property: an
// idle cluster keeps exchanging failure-detector probes, Cyclon shuffles
// and ring stabilization rounds, and every one of those messages has a
// binary wire encoding — across several periods of each, the transport
// encodes traffic and none of it falls back to gob.
func TestSteadyStateNoGobFallback(t *testing.T) {
	if testing.Short() {
		t.Skip("real sockets")
	}
	bootTCPCluster(t)
	before := network.GlobalMetrics()
	time.Sleep(time.Second) // 5 FD intervals, 5 Cyclon periods, 10 stabilize periods
	after := network.GlobalMetrics()
	if after.BinaryEncoded == before.BinaryEncoded {
		t.Fatal("no message was encoded while idle: the gate measured nothing")
	}
	if n := after.CodecFallbacks - before.CodecFallbacks; n != 0 {
		t.Fatalf("%d of %d steady-state messages fell back to gob, want 0",
			n, after.EncodedMsgs-before.EncodedMsgs)
	}
}
