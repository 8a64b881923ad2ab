package cats

import (
	"repro/internal/abd"
	"repro/internal/core"
	"repro/internal/network"
	"repro/internal/router"
	"repro/internal/timer"
	"repro/internal/web"
)

// Peer is one deployable CATS node instance: a composite bundling the
// environment's transport and timer providers with a Node, re-exporting
// the node's PutGet, Router, and Web services. The simulator host and the
// executables both deploy Peers.
type Peer struct {
	Env     Env
	NodeCfg NodeConfig

	// Node is the embedded CATS node definition (set during Setup).
	Node *Node
}

// NewPeer creates a peer component definition.
func NewPeer(env Env, cfg NodeConfig) *Peer {
	return &Peer{Env: env, NodeCfg: cfg}
}

var _ core.Definition = (*Peer)(nil)

// Setup assembles transport + timer + node and wires the pass-throughs.
func (p *Peer) Setup(ctx *core.Ctx) {
	pg := ctx.Provides(abd.PutGetPortType)
	rt := ctx.Provides(router.PortType)
	webP := ctx.Provides(web.PortType)

	tr := ctx.Create("net", p.Env.NewTransport(p.NodeCfg.Self.Addr))
	tm := ctx.Create("timer", p.Env.NewTimer())
	p.Node = NewNode(p.NodeCfg)
	nodeC := ctx.Create("node", p.Node)

	ctx.Connect(nodeC.Required(network.PortType), tr.Provided(network.PortType))
	ctx.Connect(nodeC.Required(timer.PortType), tm.Provided(timer.PortType))
	ctx.Connect(pg, nodeC.Provided(abd.PutGetPortType))
	ctx.Connect(rt, nodeC.Provided(router.PortType))
	ctx.Connect(webP, nodeC.Provided(web.PortType))
}
