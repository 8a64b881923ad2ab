package monitor

import (
	"testing"

	"repro/internal/network/wiretest"
	"repro/internal/status"
)

// The seeded sample keeps every metrics map to one entry: maps are
// encoded in iteration order, and a pinned frame needs one possible
// encoding.
var wireSamples = []wiretest.Sample{
	{Seed: "monitor.report", Msg: reportMsg{
		Header: wiretest.Header(), Node: "node-1", MetricsURL: "127.0.0.1:8080",
		Snapshots: []status.Response{
			{ReqID: 3, Component: "abd", Metrics: map[string]int64{"ops": 1200}},
			{ReqID: 3, Component: "ring"}, // a component with nothing to report
		},
	}},
	{Msg: reportMsg{
		Header: wiretest.Header(), Node: "node-2",
		Snapshots: []status.Response{{ReqID: 4, Component: "fd", Metrics: map[string]int64{"suspected": 0, "pings": -7, "pongs": 1 << 40}}},
	}},
	{Msg: reportMsg{Header: wiretest.Header()}}, // no snapshots stays nil
}

func TestMonitorWireRoundTrip(t *testing.T) { wiretest.RoundTrip(t, wireSamples) }

// A report without snapshots ends in its u32 snapshot count; a snapshot
// without metrics ends in its u32 metric count.
func TestMonitorWireCorruptCounts(t *testing.T) {
	wiretest.CorruptCount(t, reportMsg{Header: wiretest.Header()}, 4)
	wiretest.CorruptCount(t, reportMsg{Header: wiretest.Header(), Snapshots: []status.Response{{Component: "x"}}}, 4)
}

func TestMonitorWireEncodeZeroAlloc(t *testing.T) { wiretest.EncodeZeroAlloc(t, wireSamples) }
