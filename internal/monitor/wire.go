package monitor

import (
	"repro/internal/network"
	"repro/internal/status"
)

// Binary wire encoding of the monitor client's periodic report (tag 0x48):
// header, node name, scrape URL, then a counted list of component
// snapshots, each a counted list of (metric name, value) pairs. Metrics
// are written in map iteration order — sorting would allocate on every
// report, and the decoder rebuilds a map, where order means nothing.
const wireTagReport byte = 0x48

func init() {
	network.RegisterWire(wireTagReport, "monitor.report", decodeReportMsg)
}

func (m reportMsg) WireTag() byte { return wireTagReport }

func (m reportMsg) AppendWire(dst []byte) []byte {
	dst = network.AppendHeader(dst, m.Header)
	dst = network.AppendString(dst, m.Node)
	dst = network.AppendString(dst, m.MetricsURL)
	dst = network.AppendU32(dst, uint32(len(m.Snapshots)))
	for i := range m.Snapshots {
		s := &m.Snapshots[i]
		dst = network.AppendU64(dst, s.ReqID)
		dst = network.AppendString(dst, s.Component)
		dst = network.AppendU32(dst, uint32(len(s.Metrics)))
		for name, v := range s.Metrics {
			dst = network.AppendString(dst, name)
			dst = network.AppendI64(dst, v)
		}
	}
	return dst
}

func decodeReportMsg(r *network.WireReader) (network.Message, error) {
	var m reportMsg
	m.Header = r.Header()
	m.Node = r.String()
	m.MetricsURL = r.String()
	// A snapshot is at least reqID(8) + component length(4) + metric count(4).
	if n := r.Count(16); n > 0 {
		m.Snapshots = make([]status.Response, n)
		for i := range m.Snapshots {
			s := &m.Snapshots[i]
			s.ReqID = r.U64()
			s.Component = r.String()
			// A metric is at least name length(4) + value(8).
			if k := r.Count(12); k > 0 {
				s.Metrics = make(map[string]int64, k)
				for j := 0; j < k; j++ {
					name := r.String()
					s.Metrics[name] = r.I64()
				}
			}
		}
	}
	return m, nil
}
