// Package cats assembles the paper's case study: CATS, a scalable,
// self-organizing key-value store with linearizable consistency. A Node is
// a composite component embedding the ping failure detector, Cyclon
// overlay, CATS ring, one-hop router, Consistent ABD replication, an
// optional bootstrap client, an optional monitoring client, and a web
// application — wired exactly as in the paper's Figure 11. The same Node
// runs unchanged in production (TCP transport, real timer), in local
// interactive stress-test execution (loopback transport), and in
// deterministic simulation (emulated network, virtual time).
package cats

import (
	"fmt"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/abd"
	"repro/internal/bootstrap"
	"repro/internal/core"
	"repro/internal/cyclon"
	"repro/internal/fd"
	"repro/internal/handoff"
	"repro/internal/ident"
	"repro/internal/kvstore"
	"repro/internal/monitor"
	"repro/internal/network"
	"repro/internal/ring"
	"repro/internal/router"
	"repro/internal/status"
	"repro/internal/timer"
	"repro/internal/web"
)

// reqCounter allocates process-unique PutGet/Status request IDs, so the
// responses fanning out to every connected client are attributable.
// Deterministic under the single-threaded simulation scheduler.
var reqCounter atomic.Uint64

// NextReqID allocates a fresh request ID.
func NextReqID() uint64 { return reqCounter.Add(1) }

// NodeConfig parameterizes a CATS node.
type NodeConfig struct {
	// Self is the node's ring key and address.
	Self ident.NodeRef
	// Seeds are initial ring contacts, used directly when no bootstrap
	// server is configured. An empty list founds a fresh ring.
	Seeds []ident.NodeRef
	// BootstrapServer, when set, makes the node fetch its seeds from the
	// bootstrap service and send keep-alives after joining.
	BootstrapServer network.Address
	// MonitorServer, when set, makes the node report component status
	// snapshots to the monitoring service.
	MonitorServer network.Address
	// MetricsURL is the node's web listen address, advertised to the
	// monitoring service so its /federate endpoint can scrape this node's
	// /metrics (empty: not federated).
	MetricsURL string

	// ReplicationDegree is the replica group size (default 3).
	ReplicationDegree int
	// FDInterval is the failure-detector ping period (default 100ms).
	FDInterval time.Duration
	// FDSuspectAfterMisses is how many consecutive unanswered ping rounds
	// raise Suspect (default 2). Raise it to keep short network outages —
	// e.g. transport reconnects — from evicting healthy nodes.
	FDSuspectAfterMisses int
	// StabilizePeriod is the ring stabilization period (default 500ms).
	StabilizePeriod time.Duration
	// CyclonPeriod is the peer-sampling shuffle period (default 1s).
	CyclonPeriod time.Duration
	// OpTimeout is the ABD per-attempt timeout (default 1s).
	OpTimeout time.Duration
	// RouterEntryTTL ages out router membership entries not refreshed in
	// this window (default 30s).
	RouterEntryTTL time.Duration
	// RouterSweepPeriod is the router staleness sweep interval
	// (default 5s).
	RouterSweepPeriod time.Duration

	// DeadlineFloor is the lower clamp of ABD's adaptive per-peer deadline
	// (see abd.Config; default OpTimeout/20). Setting it to OpTimeout gives
	// the fixed-deadline coordinator, which never hedges.
	DeadlineFloor time.Duration

	// DataDir, when set, makes the register store durable: its
	// write-ahead log + snapshot live under this directory and are
	// replayed — synchronously, before any component starts — when the
	// node boots, so ABD phases and handoff pulls serve recovered state
	// after a whole-process restart. Empty keeps the store memory-only.
	DataDir string
	// WALSync is the WAL fsync policy for durable stores
	// (default kvstore.SyncNever).
	WALSync kvstore.SyncPolicy
	// WALSyncEvery is the group-commit period under kvstore.SyncInterval
	// (default kvstore.DefaultSyncEvery).
	WALSyncEvery time.Duration
	// WALSnapshotBytes is the WAL size that triggers a checkpoint: snapshot
	// + log rotation (0: kvstore default; negative: never checkpoint).
	WALSnapshotBytes int64
}

func (c *NodeConfig) applyDefaults() {
	if c.ReplicationDegree <= 0 {
		c.ReplicationDegree = 3
	}
	if c.FDInterval <= 0 {
		c.FDInterval = 100 * time.Millisecond
	}
	if c.StabilizePeriod <= 0 {
		c.StabilizePeriod = 500 * time.Millisecond
	}
	if c.CyclonPeriod <= 0 {
		c.CyclonPeriod = time.Second
	}
	if c.OpTimeout <= 0 {
		c.OpTimeout = time.Second
	}
}

// Node is the CATS Node composite component. It requires Network and Timer
// (satisfied by whichever transport/timer the execution mode provides) and
// provides PutGet, Router, and Web.
type Node struct {
	cfg NodeConfig

	ctx  *core.Ctx
	netP *core.Port // required Network (inner)
	tmrP *core.Port // required Timer (inner)
	pgP  *core.Port // provided PutGet (inner)
	rtP  *core.Port // provided Router (inner)
	webP *core.Port // provided Web (inner)

	// Children (definitions kept for tests/status accessors).
	FD      *fd.Ping
	Cyclon  *cyclon.Overlay
	Ring    *ring.Ring
	Router  *router.Router
	ABD     *abd.ABD
	Handoff *handoff.Handoff

	store *kvstore.Store

	ringOuter   *core.Port
	cyclonOuter *core.Port
	bootOuter   *core.Port
	abdOuter    *core.Port
	statPorts   []*core.Port

	joined bool

	// Web request correlation.
	webStatus map[uint64]*statusRound
	webOps    map[uint64]uint64 // putget reqID → web reqID
}

// statusRound collects one /status page's component snapshots.
type statusRound struct {
	webReqID uint64
	expected int
	got      []status.Response
}

// NewNode creates a CATS node component definition.
func NewNode(cfg NodeConfig) *Node {
	cfg.applyDefaults()
	return &Node{
		cfg:       cfg,
		webStatus: make(map[uint64]*statusRound),
		webOps:    make(map[uint64]uint64),
	}
}

var _ core.Definition = (*Node)(nil)

// Config returns the node's configuration.
func (n *Node) Config() NodeConfig { return n.cfg }

// Self returns the node's identity.
func (n *Node) Self() ident.NodeRef { return n.cfg.Self }

// Joined reports whether the node has joined the ring.
func (n *Node) Joined() bool { return n.joined }

// Store returns the node's register store (nil before Setup).
func (n *Node) Store() *kvstore.Store { return n.store }

// openStore creates the register store: durable (recovered from
// DataDir's snapshots + WAL tails) when a data directory is configured,
// memory-only otherwise.
func (n *Node) openStore() (*kvstore.Store, error) {
	if n.cfg.DataDir == "" {
		return kvstore.New(), nil
	}
	return kvstore.Open(n.cfg.DataDir, kvstore.Options{
		Sync:          n.cfg.WALSync,
		SyncEvery:     n.cfg.WALSyncEvery,
		SnapshotBytes: n.cfg.WALSnapshotBytes,
	})
}

// Setup assembles the node's internal architecture.
func (n *Node) Setup(ctx *core.Ctx) {
	n.ctx = ctx
	n.netP = ctx.Requires(network.PortType)
	n.tmrP = ctx.Requires(timer.PortType)
	n.pgP = ctx.Provides(abd.PutGetPortType)
	n.rtP = ctx.Provides(router.PortType)
	n.webP = ctx.Provides(web.PortType)

	self := n.cfg.Self

	// Substrate children.
	n.FD = fd.NewPing(fd.Config{
		Self:               self.Addr,
		Interval:           n.cfg.FDInterval,
		SuspectAfterMisses: n.cfg.FDSuspectAfterMisses,
	})
	fdC := ctx.Create("fd", n.FD)
	n.Cyclon = cyclon.New(cyclon.Config{Self: self, Period: n.cfg.CyclonPeriod})
	cyC := ctx.Create("cyclon", n.Cyclon)
	n.Ring = ring.New(ring.Config{
		Self:            self,
		StabilizePeriod: n.cfg.StabilizePeriod,
	})
	ringC := ctx.Create("ring", n.Ring)
	n.Router = router.New(router.Config{
		Self:        self,
		EntryTTL:    n.cfg.RouterEntryTTL,
		SweepPeriod: n.cfg.RouterSweepPeriod,
	})
	routC := ctx.Create("router", n.Router)
	// The replica and the handoff component share one register store: the
	// data handoff pulls in must be the data quorum phases serve out.
	// With a DataDir the store recovers from its snapshot + WAL tail
	// right here — Setup runs before any child handles an event, so
	// replay strictly precedes the first served ABD phase or handoff
	// pull. A store that cannot open is fatal: a stateful node must not
	// silently boot empty over unreadable state.
	store, err := n.openStore()
	if err != nil {
		panic(fmt.Sprintf("cats: node %s: open durable store at %q: %v", self, n.cfg.DataDir, err))
	}
	n.store = store
	// Close (flush + release) the WAL when the node is destroyed, so
	// simulated crash-restart cycles can reopen the same directory.
	core.Subscribe(ctx, ctx.Control(), func(core.Stop) {
		store.Close()
	})
	n.ABD = abd.New(abd.Config{
		Self:              self,
		ReplicationDegree: n.cfg.ReplicationDegree,
		OpTimeout:         n.cfg.OpTimeout,
		Store:             store,
		DeadlineFloor:     n.cfg.DeadlineFloor,
	})
	abdC := ctx.Create("abd", n.ABD)
	n.Handoff = handoff.New(handoff.Config{
		Self:    self,
		Degree:  n.cfg.ReplicationDegree,
		Store:   store,
		Members: n.Router.Members,
	})
	hoC := ctx.Create("handoff", n.Handoff)

	// Network/Timer pass-through: children's required ports delegate to
	// the node's own required ports.
	for _, c := range []*core.Component{fdC, cyC, ringC, routC, abdC, hoC} {
		if p := c.Required(network.PortType); p != nil {
			ctx.Connect(p, n.netP)
		}
		if p := c.Required(timer.PortType); p != nil {
			ctx.Connect(p, n.tmrP)
		}
	}

	// Protocol wiring.
	ctx.Connect(fdC.Provided(fd.PortType), ringC.Required(fd.PortType))
	ctx.Connect(fdC.Provided(fd.PortType), routC.Required(fd.PortType))
	ctx.Connect(ringC.Provided(ring.PortType), routC.Required(ring.PortType))
	ctx.Connect(cyC.Provided(cyclon.PortType), routC.Required(cyclon.PortType))
	ctx.Connect(ringC.Provided(ring.PortType), hoC.Required(ring.PortType))
	ctx.Connect(routC.Provided(router.PortType), abdC.Required(router.PortType))
	ctx.Connect(hoC.Provided(handoff.PortType), abdC.Required(handoff.PortType))
	// Slow-peer hints: sustained adaptive-deadline overruns observed by the
	// ABD coordinator feed the failure detector as Suspect-grade evidence.
	ctx.Connect(fdC.Provided(fd.PortType), abdC.Required(fd.PortType))

	// Service pass-through: the node's provided PutGet and Router delegate
	// to ABD and the router.
	ctx.Connect(n.pgP, abdC.Provided(abd.PutGetPortType))
	ctx.Connect(n.rtP, routC.Provided(router.PortType))

	// Runtime telemetry producer: surfaces the node's /metrics counters and
	// gauges through the same Status abstraction the protocol children use,
	// so the monitor server aggregates them without special-casing.
	rtsC := ctx.Create("rtstat", monitor.NewRuntimeStatus())

	// Status surfaces.
	n.statPorts = []*core.Port{
		fdC.Provided(status.PortType),
		cyC.Provided(status.PortType),
		ringC.Provided(status.PortType),
		routC.Provided(status.PortType),
		abdC.Provided(status.PortType),
		hoC.Provided(status.PortType),
		rtsC.Provided(status.PortType),
	}
	for _, sp := range n.statPorts {
		core.Subscribe(ctx, sp, n.handleStatusResponse)
	}

	// Join orchestration.
	n.ringOuter = ringC.Provided(ring.PortType)
	n.cyclonOuter = cyC.Provided(cyclon.PortType)
	n.abdOuter = abdC.Provided(abd.PutGetPortType)
	core.Subscribe(ctx, n.ringOuter, n.handleRingReady)

	if !n.cfg.BootstrapServer.IsZero() {
		bootC := ctx.Create("boot", bootstrap.NewClient(bootstrap.ClientConfig{
			Self:    self.Addr,
			SelfRef: self,
			Server:  n.cfg.BootstrapServer,
		}))
		ctx.Connect(bootC.Required(network.PortType), n.netP)
		ctx.Connect(bootC.Required(timer.PortType), n.tmrP)
		n.bootOuter = bootC.Provided(bootstrap.PortType)
		core.Subscribe(ctx, n.bootOuter, n.handleBootstrapResponse)
		core.Subscribe(ctx, ctx.Control(), func(core.Start) {
			ctx.Trigger(bootstrap.BootstrapRequest{}, n.bootOuter)
		})
	} else {
		core.Subscribe(ctx, ctx.Control(), func(core.Start) {
			n.joinWith(n.cfg.Seeds)
		})
	}

	// Monitoring client, wired to every child's Status port.
	if !n.cfg.MonitorServer.IsZero() {
		monC := ctx.Create("monitor", monitor.NewClient(monitor.ClientConfig{
			Self:       self.Addr,
			Server:     n.cfg.MonitorServer,
			NodeName:   self.String(),
			MetricsURL: n.cfg.MetricsURL,
		}))
		ctx.Connect(monC.Required(network.PortType), n.netP)
		ctx.Connect(monC.Required(timer.PortType), n.tmrP)
		for _, sp := range n.statPorts {
			ctx.Connect(monC.Required(status.PortType), sp)
		}
	}

	// Web application (request handlers on the node's provided Web port).
	core.Subscribe(ctx, n.webP, n.handleWebRequest)
	core.Subscribe(ctx, n.abdOuter, n.handleGetResponse)
	core.Subscribe(ctx, n.abdOuter, n.handlePutResponse)
}

// joinWith starts the ring join and seeds the overlay.
func (n *Node) joinWith(seeds []ident.NodeRef) {
	n.ctx.Trigger(ring.Join{Seeds: seeds}, n.ringOuter)
	if len(seeds) > 0 {
		n.ctx.Trigger(cyclon.JoinOverlay{Seeds: seeds}, n.cyclonOuter)
	}
}

func (n *Node) handleBootstrapResponse(r bootstrap.BootstrapResponse) {
	n.joinWith(r.Peers)
}

func (n *Node) handleRingReady(ring.Ready) {
	n.joined = true
	if n.bootOuter != nil {
		n.ctx.Trigger(bootstrap.BootstrapDone{Self: n.cfg.Self}, n.bootOuter)
	}
}

// --- web application -----------------------------------------------------------

// Web request IDs live in a dedicated space so they never collide with
// other clients of the same ABD component.
const webReqBase = uint64(1) << 32

func (n *Node) handleWebRequest(r web.Request) {
	switch {
	case r.Path == "/" || r.Path == "/status":
		id := webReqBase + NextReqID()
		n.webStatus[id] = &statusRound{webReqID: r.ReqID, expected: len(n.statPorts)}
		for _, sp := range n.statPorts {
			n.ctx.Trigger(status.Request{ReqID: id}, sp)
		}
	case strings.HasPrefix(r.Path, "/get"):
		key := queryParam(r.Query, "key")
		if key == "" {
			n.respond(r.ReqID, 400, "missing ?key=")
			return
		}
		id := webReqBase + NextReqID()
		n.webOps[id] = r.ReqID
		n.ctx.Trigger(abd.GetRequest{ReqID: id, Key: key}, n.abdOuter)
	case strings.HasPrefix(r.Path, "/put"):
		key := queryParam(r.Query, "key")
		value := queryParam(r.Query, "value")
		if key == "" {
			n.respond(r.ReqID, 400, "missing ?key=")
			return
		}
		id := webReqBase + NextReqID()
		n.webOps[id] = r.ReqID
		n.ctx.Trigger(abd.PutRequest{ReqID: id, Key: key, Value: []byte(value)}, n.abdOuter)
	default:
		n.respond(r.ReqID, 404, "unknown path; try /status, /get?key=k, /put?key=k&value=v")
	}
}

func (n *Node) handleStatusResponse(s status.Response) {
	round, ok := n.webStatus[s.ReqID]
	if !ok {
		return // a monitoring-client round, not ours
	}
	round.got = append(round.got, s)
	if len(round.got) < round.expected {
		return
	}
	delete(n.webStatus, s.ReqID)
	n.respond(round.webReqID, 200, n.renderStatus(round.got))
}

func (n *Node) handleGetResponse(g abd.GetResponse) {
	webID, ok := n.webOps[g.ReqID]
	if !ok {
		return
	}
	delete(n.webOps, g.ReqID)
	switch {
	case g.Err != "":
		n.respond(webID, 500, "error: "+g.Err)
	case !g.Found:
		n.respond(webID, 404, "not found")
	default:
		n.respond(webID, 200, string(g.Value))
	}
}

func (n *Node) handlePutResponse(p abd.PutResponse) {
	webID, ok := n.webOps[p.ReqID]
	if !ok {
		return
	}
	delete(n.webOps, p.ReqID)
	if p.Err != "" {
		n.respond(webID, 500, "error: "+p.Err)
		return
	}
	n.respond(webID, 200, "ok")
}

func (n *Node) respond(webReqID uint64, code int, body string) {
	n.ctx.Trigger(web.Response{ReqID: webReqID, Status: code, Body: body}, n.webP)
}

// renderStatus renders the node status page.
func (n *Node) renderStatus(snaps []status.Response) string {
	return fmt.Sprintf("<html><head><title>CATS node %[1]s</title></head><body><h1>CATS node %[1]s</h1>"+
		"<p>joined=%[2]v replication=%[3]d</p>%[4]s</body></html>",
		n.cfg.Self, n.joined, n.cfg.ReplicationDegree, status.HTMLList(snaps))
}

// queryParam extracts a parameter from a raw query string without
// importing net/url in the hot path (values are simple test keys).
func queryParam(query, name string) string {
	for _, kv := range strings.Split(query, "&") {
		if v, ok := strings.CutPrefix(kv, name+"="); ok {
			return v
		}
	}
	return ""
}
