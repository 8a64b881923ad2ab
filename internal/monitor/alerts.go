package monitor

import (
	"fmt"
	"strings"

	"repro/internal/web"
)

// Alerting over the monitor rollups: the server compares each node's
// consecutive "runtime" snapshots and fires rules on the deltas. The rules
// are deliberately minimal — growth-style conditions over the counters the
// nodes already report, read under their /metrics family names — and the
// result is a plain-text /alerts view next to the global HTML page, cheap
// enough to curl from a smoke test or a CI probe.

// alertReconnectStormThreshold is how many peer reconnects within one
// reporting period count as a storm rather than routine churn.
const alertReconnectStormThreshold = 5

// Scheduler deque-depth alerting. A node's reported
// cats_scheduler_max_deque_depth is an all-time high-water mark, so the
// server keeps a decaying copy per node (halved every reporting period,
// refreshed to any new maximum) and the rule fires only while the decayed
// mark stays above the threshold for two consecutive periods — a sustained
// backlog, not one historical burst.
const (
	alertDequeDepthThreshold = 256
	dequeDepthDecay          = 0.5
	maxDequeDepth            = "cats_scheduler_max_deque_depth"
)

// Alert is one firing rule instance for one node.
type Alert struct {
	Node   string
	Rule   string
	Detail string
}

// AlertRule evaluates the delta between two consecutive runtime rollups of
// one node. Fire returns a human-readable detail when the rule fires and
// "" otherwise.
type AlertRule struct {
	Name string
	Fire func(prev, cur map[string]int64) string
}

// DefaultAlertRules returns the built-in rule set: send-queue overflow
// growth, handler fault spikes, peer reconnect storms, and sustained
// scheduler deque depth.
func DefaultAlertRules() []AlertRule {
	return []AlertRule{
		{Name: "dropped-full-growth", Fire: func(prev, cur map[string]int64) string {
			if d := cur["cats_network_dropped_full_total"] - prev["cats_network_dropped_full_total"]; d > 0 {
				return fmt.Sprintf("%d messages dropped on full send queues in the last period", d)
			}
			return ""
		}},
		{Name: "fault-spike", Fire: func(prev, cur map[string]int64) string {
			if d := cur["cats_runtime_faults_total"] - prev["cats_runtime_faults_total"]; d > 0 {
				return fmt.Sprintf("%d handler faults in the last period", d)
			}
			return ""
		}},
		{Name: "reconnect-storm", Fire: func(prev, cur map[string]int64) string {
			if d := cur["cats_network_reconnects_total"] - prev["cats_network_reconnects_total"]; d >= alertReconnectStormThreshold {
				return fmt.Sprintf("%d peer reconnects in the last period", d)
			}
			return ""
		}},
		{Name: "deque-depth-sustained", Fire: func(prev, cur map[string]int64) string {
			p, c := prev[maxDequeDepth], cur[maxDequeDepth]
			if p >= alertDequeDepthThreshold && c >= alertDequeDepthThreshold {
				return fmt.Sprintf("scheduler deque depth high-water mark at %d (decayed) across consecutive periods", c)
			}
			return ""
		}},
	}
}

// EvaluateAlerts runs every rule over one node's consecutive runtime
// rollups, returning the firing alerts in rule order.
func EvaluateAlerts(rules []AlertRule, node string, prev, cur map[string]int64) []Alert {
	var out []Alert
	for _, r := range rules {
		if detail := r.Fire(prev, cur); detail != "" {
			out = append(out, Alert{Node: node, Rule: r.Name, Detail: detail})
		}
	}
	return out
}

// observeRuntime folds a node's fresh runtime rollup into the alert state:
// rules fire against the previous rollup (a node's first report only seeds
// the baseline), and the node's firing set is replaced each round so healed
// conditions clear. In the rollups the rules see, the node's all-time deque
// depth is replaced by the server's decaying high-water mark, so rules stay
// pure functions of two metric maps.
func (s *Server) observeRuntime(node string, cur map[string]int64) {
	c := make(map[string]int64, len(cur))
	for k, v := range cur {
		c[k] = v
	}
	hwm := float64(s.depthHWM[node]) * dequeDepthDecay
	if d := float64(cur[maxDequeDepth]); d > hwm {
		hwm = d
	}
	s.depthHWM[node] = int64(hwm)
	c[maxDequeDepth] = int64(hwm)
	if prev, ok := s.prevRuntime[node]; ok {
		s.alerts[node] = EvaluateAlerts(DefaultAlertRules(), node, prev, c)
	}
	s.prevRuntime[node] = c
}

// Alerts returns every firing alert, sorted by node then rule order.
func (s *Server) Alerts() []Alert {
	var out []Alert
	for _, node := range s.nodeNames() {
		out = append(out, s.alerts[node]...)
	}
	return out
}

// renderAlerts serves the plain-text /alerts view.
func (s *Server) renderAlerts(r web.Request) {
	s.expire()
	alerts := s.Alerts()
	var b strings.Builder
	if len(alerts) == 0 {
		b.WriteString("CATS alerts: none firing\n")
	} else {
		fmt.Fprintf(&b, "CATS alerts: %d firing\n\n", len(alerts))
		for _, a := range alerts {
			fmt.Fprintf(&b, "%s %s: %s\n", a.Node, a.Rule, a.Detail)
		}
	}
	s.ctx.Trigger(web.Response{
		ReqID:       r.ReqID,
		Status:      200,
		ContentType: "text/plain; charset=utf-8",
		Body:        b.String(),
	}, s.webP)
}
