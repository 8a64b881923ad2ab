package fd

import (
	"testing"

	"repro/internal/network/wiretest"
)

var wireSamples = []wiretest.Sample{
	{Seed: "fd.ping", Msg: pingMsg{Header: wiretest.Header(), Seq: 41}},
	{Seed: "fd.pong", Msg: pongMsg{Header: wiretest.Header(), Seq: 42}},
	{Msg: pingMsg{}},
	{Msg: pongMsg{}},
}

func TestFDWireRoundTrip(t *testing.T) { wiretest.RoundTrip(t, wireSamples) }

func TestFDWireEncodeZeroAlloc(t *testing.T) { wiretest.EncodeZeroAlloc(t, wireSamples) }
