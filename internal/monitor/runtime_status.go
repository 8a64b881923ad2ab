package monitor

import (
	"repro/internal/core"
	"repro/internal/status"
	"repro/internal/web"
)

// RuntimeStatus is a Status producer that answers with the node's metrics —
// the same families its /metrics endpoint serves, rendered by
// web.WriteNodeMetrics into the map[string]int64 wire form of
// status.Response. Attached next to a node's functional components, it makes
// every node's runtime internals visible in the monitor server's global view
// without the server knowing anything about the telemetry layer.
type RuntimeStatus struct {
	ctx  *core.Ctx
	port *core.Port
}

// NewRuntimeStatus creates a runtime-status component definition.
func NewRuntimeStatus() *RuntimeStatus { return &RuntimeStatus{} }

var _ core.Definition = (*RuntimeStatus)(nil)

// Setup declares the provided Status port.
func (r *RuntimeStatus) Setup(ctx *core.Ctx) {
	r.ctx = ctx
	r.port = ctx.Provides(status.PortType)
	core.Subscribe(ctx, r.port, r.handleRequest)
}

// handleRequest answers with the rollup of the node's metrics: every
// unlabeled counter and gauge sample under its /metrics family name.
func (r *RuntimeStatus) handleRequest(req status.Request) {
	rollup := make(map[string]int64)
	_ = web.WriteNodeMetrics(web.NewRollupWriter(rollup), r.ctx.Runtime().MetricsSnapshot()) // the rollup sink never fails
	r.ctx.Trigger(status.Response{
		ReqID:     req.ReqID,
		Component: "runtime",
		Metrics:   rollup,
	}, r.port)
}
