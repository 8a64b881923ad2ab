// Package status defines the Status port abstraction of the paper: every
// functional component of a node provides a Status port accepting
// StatusRequests and delivering StatusResponses, which the monitoring
// client and the node's web application aggregate.
package status

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/core"
)

// Request asks a component for a snapshot of its internal metrics.
type Request struct {
	ReqID uint64
}

// Response carries one component's metrics snapshot.
type Response struct {
	ReqID     uint64
	Component string
	Metrics   map[string]int64
}

// PortType is the Status service abstraction.
var PortType = core.NewPortType("Status",
	core.Request[Request](),
	core.Indication[Response](),
)

// HTMLList renders snapshots as the HTML list the node status page and the
// monitor's global view share: one item per component, sorted by component,
// its metrics as name=value pairs sorted by name.
func HTMLList(snaps []Response) string {
	sorted := append([]Response(nil), snaps...)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].Component < sorted[j].Component })
	var b strings.Builder
	b.WriteString("<ul>")
	for _, s := range sorted {
		fmt.Fprintf(&b, "<li><b>%s</b>: ", s.Component)
		keys := make([]string, 0, len(s.Metrics))
		for k := range s.Metrics {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for i, k := range keys {
			if i > 0 {
				b.WriteString(", ")
			}
			fmt.Fprintf(&b, "%s=%d", k, s.Metrics[k])
		}
		b.WriteString("</li>")
	}
	b.WriteString("</ul>")
	return b.String()
}
