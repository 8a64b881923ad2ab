// webmonitor deploys the paper's full Figure 10 architecture inside one
// process — a bootstrap server, a monitoring server with a web interface,
// and three CATS nodes with web interfaces, all over real TCP sockets —
// then interacts with the system over HTTP exactly as a user would:
// putting and getting keys through different nodes' web UIs, reading a
// node status page, and reading the aggregated global view.
//
// Run: go run ./examples/webmonitor
package main

import (
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"strings"
	"time"

	"repro/internal/bootstrap"
	"repro/internal/cats"
	"repro/internal/core"
	"repro/internal/ident"
	"repro/internal/monitor"
	"repro/internal/network"
	"repro/internal/timer"
	"repro/internal/web"
)

func freeAddr() network.Address {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		panic(err)
	}
	port := ln.Addr().(*net.TCPAddr).Port
	_ = ln.Close()
	return network.Address{Host: "127.0.0.1", Port: uint16(port)}
}

func get(url string) (int, string) {
	resp, err := http.Get(url)
	if err != nil {
		fmt.Println("webmonitor: http error:", err)
		os.Exit(1)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, string(body)
}

// tryGet is get but tolerant of servers that have not bound yet.
func tryGet(url string) (int, string, bool) {
	resp, err := http.Get(url)
	if err != nil {
		return 0, "", false
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, string(body), true
}

func main() {
	bsAddr := freeAddr()
	monAddr := freeAddr()
	monWeb := freeAddr()

	rt := core.New(core.WithFaultPolicy(core.LogAndContinue))
	defer rt.Shutdown()

	const n = 3
	nodeWebs := make([]network.Address, n)
	for i := range nodeWebs {
		nodeWebs[i] = freeAddr()
	}

	rt.MustBootstrap("Main", core.SetupFunc(func(ctx *core.Ctx) {
		// Bootstrap server (BootstrapServerMain).
		bsNet := ctx.Create("bs-net", network.NewTCP(bsAddr))
		bsTmr := ctx.Create("bs-timer", timer.NewReal())
		bs := ctx.Create("bootstrap", bootstrap.NewServer(bootstrap.ServerConfig{
			Self:       bsAddr,
			EvictAfter: 10 * time.Second,
		}))
		ctx.Connect(bs.Required(network.PortType), bsNet.Provided(network.PortType))
		ctx.Connect(bs.Required(timer.PortType), bsTmr.Provided(timer.PortType))

		// Monitor server with web bridge (MonitorServerMain).
		monNet := ctx.Create("mon-net", network.NewTCP(monAddr))
		mon := ctx.Create("monitor", monitor.NewServer(monitor.ServerConfig{Self: monAddr}))
		ctx.Connect(mon.Required(network.PortType), monNet.Provided(network.PortType))
		monBridge := ctx.Create("mon-web", web.NewBridge(web.BridgeConfig{Listen: monWeb.String()}))
		ctx.Connect(mon.Provided(web.PortType), monBridge.Required(web.PortType))

		// Three CATS nodes (CatsNodeMain × 3), each with its own web UI.
		for i := 0; i < n; i++ {
			self := ident.NodeRef{Key: ident.Key(uint64(i+1) << 60), Addr: freeAddr()}
			peer := cats.NewPeer(cats.TCPEnv{}, cats.NodeConfig{
				Self:              self,
				BootstrapServer:   bsAddr,
				MonitorServer:     monAddr,
				ReplicationDegree: 3,
				FDInterval:        200 * time.Millisecond,
				StabilizePeriod:   150 * time.Millisecond,
				CyclonPeriod:      300 * time.Millisecond,
				OpTimeout:         2 * time.Second,
			})
			pc := ctx.Create(fmt.Sprintf("node-%d", i), peer)
			bridge := ctx.Create(fmt.Sprintf("node-web-%d", i),
				web.NewBridge(web.BridgeConfig{Listen: nodeWebs[i].String()}))
			ctx.Connect(pc.Provided(web.PortType), bridge.Required(web.PortType))
		}
	}))

	fmt.Println("webmonitor: waiting for the ring to assemble via the bootstrap service...")
	deadline := time.Now().Add(60 * time.Second)
	for {
		// Converged: every node joined and its one-hop router knows the
		// other two (the status page exposes the router table size).
		ready := 0
		for i := 0; i < n; i++ {
			code, body, ok := tryGet(fmt.Sprintf("http://%s/status", nodeWebs[i]))
			if ok && code == 200 && strings.Contains(body, "joined=true") &&
				strings.Contains(body, fmt.Sprintf("table=%d", n-1)) {
				ready++
			}
		}
		if ready == n {
			break
		}
		if time.Now().After(deadline) {
			fmt.Println("webmonitor: membership did not converge in time")
			for i := 0; i < n; i++ {
				_, body, _ := tryGet(fmt.Sprintf("http://%s/status", nodeWebs[i]))
				fmt.Printf("--- node %d ---\n%s\n", i, body)
			}
			os.Exit(1)
		}
		time.Sleep(200 * time.Millisecond)
	}

	// Interact over HTTP, through different nodes.
	code, body := get(fmt.Sprintf("http://%s/put?key=city&value=montreal", nodeWebs[0]))
	fmt.Printf("PUT via node 0: %d %s\n", code, body)
	code, body = get(fmt.Sprintf("http://%s/get?key=city", nodeWebs[2]))
	fmt.Printf("GET via node 2: %d %s\n", code, body)
	if body != "montreal" {
		fmt.Println("webmonitor: linearizable read failed")
		os.Exit(1)
	}

	code, body = get(fmt.Sprintf("http://%s/status", nodeWebs[1]))
	fmt.Printf("node 1 status page: %d, %d bytes", code, len(body))
	for _, comp := range []string{"ping-fd", "cyclon", "ring", "one-hop-router", "consistent-abd"} {
		if !strings.Contains(body, comp) {
			fmt.Printf(" (missing %s!)", comp)
		}
	}
	fmt.Println()

	// Global view aggregated by the monitoring service.
	deadline = time.Now().Add(15 * time.Second)
	for {
		code, body = get(fmt.Sprintf("http://%s/", monWeb))
		if code == 200 && strings.Contains(body, "Global view: 3 nodes") {
			fmt.Printf("monitor global view: %d, shows 3 nodes with component metrics\n", code)
			break
		}
		if time.Now().After(deadline) {
			fmt.Printf("monitor global view incomplete:\n%s\n", body)
			os.Exit(1)
		}
		time.Sleep(300 * time.Millisecond)
	}
	fmt.Println("webmonitor: full deployment architecture verified over HTTP")
}
