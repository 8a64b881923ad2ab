// kvcluster boots a five-node CATS key-value store inside one process —
// the paper's local interactive execution mode — over the in-process
// loopback transport with full message serialization, waits for the ring
// to converge, then performs linearizable puts and gets through different
// coordinator nodes.
//
// Run: go run ./examples/kvcluster
package main

import (
	"fmt"
	"os"
	"time"

	"repro/internal/abd"
	"repro/internal/cats"
	"repro/internal/core"
	"repro/internal/ident"
	"repro/internal/network"
)

// client drives PutGet traffic through its required PutGet port (wired by
// the parent to one node's provided port) and reports responses on
// channels.
type client struct {
	target *core.Port // own required PutGet (inner)
	ctx    *core.Ctx
	gets   chan abd.GetResponse
	puts   chan abd.PutResponse
}

func (c *client) Setup(ctx *core.Ctx) {
	c.ctx = ctx
	c.target = ctx.Requires(abd.PutGetPortType)
	core.Subscribe(ctx, c.target, func(g abd.GetResponse) { c.gets <- g })
	core.Subscribe(ctx, c.target, func(p abd.PutResponse) { c.puts <- p })
}

func main() {
	const n = 5
	registry := network.NewLoopbackRegistry(
		network.WithWireCodec(network.Codec{Compress: true}), // full marshalling path
	)
	env := cats.LoopbackEnv{Registry: registry}

	rt := core.New()
	defer rt.Shutdown()

	// Build node configs: node 0 founds the ring, the rest join through it.
	refs := make([]ident.NodeRef, n)
	for i := range refs {
		refs[i] = ident.NodeRef{
			Key:  ident.Key(uint64(i) * (1 << 60)),
			Addr: network.Address{Host: fmt.Sprintf("node-%d", i), Port: 7000},
		}
	}

	peers := make([]*cats.Peer, n)
	clients := make([]*client, n)
	rt.MustBootstrap("CatsLocalMain", core.SetupFunc(func(ctx *core.Ctx) {
		for i := range refs {
			cfg := cats.NodeConfig{
				Self:              refs[i],
				ReplicationDegree: 3,
				FDInterval:        100 * time.Millisecond,
				StabilizePeriod:   100 * time.Millisecond,
				CyclonPeriod:      200 * time.Millisecond,
				OpTimeout:         500 * time.Millisecond,
			}
			if i > 0 {
				cfg.Seeds = []ident.NodeRef{refs[0]}
			}
			peers[i] = cats.NewPeer(env, cfg)
			comp := ctx.Create(fmt.Sprintf("peer-%d", i), peers[i])
			clients[i] = &client{
				gets: make(chan abd.GetResponse, 16),
				puts: make(chan abd.PutResponse, 16),
			}
			clC := ctx.Create(fmt.Sprintf("client-%d", i), clients[i])
			ctx.Connect(comp.Provided(abd.PutGetPortType), clC.Required(abd.PutGetPortType))
		}
	}))

	// Wait for ring convergence.
	fmt.Println("kvcluster: waiting for ring convergence...")
	deadline := time.Now().Add(30 * time.Second)
	for {
		joined := 0
		for _, p := range peers {
			if p.Node != nil && p.Node.Ring.Joined() && len(p.Node.Ring.Succs()) > 0 {
				joined++
			}
		}
		if joined == n {
			break
		}
		if time.Now().After(deadline) {
			fmt.Println("kvcluster: ring did not converge")
			os.Exit(1)
		}
		time.Sleep(50 * time.Millisecond)
	}
	time.Sleep(2 * time.Second) // let membership tables fill
	fmt.Printf("kvcluster: %d nodes joined the ring\n", n)

	// Put through node 1, get through every node.
	put := func(via int, key, value string) {
		id := cats.NextReqID()
		clients[via].ctx.Trigger(abd.PutRequest{ReqID: id, Key: key, Value: []byte(value)}, clients[via].target)
		select {
		case resp := <-clients[via].puts:
			if resp.Err != "" {
				fmt.Printf("put %s via node %d: error %s\n", key, via, resp.Err)
				os.Exit(1)
			}
			fmt.Printf("put %s=%s via node %d: ok\n", key, value, via)
		case <-time.After(10 * time.Second):
			fmt.Println("put timed out")
			os.Exit(1)
		}
	}
	get := func(via int, key string) string {
		id := cats.NextReqID()
		clients[via].ctx.Trigger(abd.GetRequest{ReqID: id, Key: key}, clients[via].target)
		select {
		case resp := <-clients[via].gets:
			if resp.Err != "" || !resp.Found {
				fmt.Printf("get %s via node %d: err=%q found=%v\n", key, via, resp.Err, resp.Found)
				os.Exit(1)
			}
			return string(resp.Value)
		case <-time.After(10 * time.Second):
			fmt.Println("get timed out")
			os.Exit(1)
			return ""
		}
	}

	put(1, "greeting", "hello from CATS")
	put(2, "answer", "42")
	for i := 0; i < n; i++ {
		fmt.Printf("get greeting via node %d: %q\n", i, get(i, "greeting"))
	}
	if got := get(4, "answer"); got != "42" {
		fmt.Printf("unexpected value %q\n", got)
		os.Exit(1)
	}
	fmt.Println("kvcluster: linearizable reads from every coordinator — done")
}
