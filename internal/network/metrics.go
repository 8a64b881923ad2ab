package network

import "sync/atomic"

// Process-wide transport counters, aggregated across every Codec and TCP
// instance in the process. Per-instance counters remain available via
// TCP.Stats; these globals exist so the /metrics endpoint can report network
// activity without holding references to every transport component.
var (
	gEncodedMsgs      atomic.Uint64 // messages serialized by Codec.Encode
	gEncodedBytes     atomic.Uint64 // payload bytes produced by Encode (post-compression)
	gDecodedMsgs      atomic.Uint64 // messages deserialized by DecodePayload
	gCompressedMsgs   atomic.Uint64 // messages that went through zlib on encode
	gCompressedIn     atomic.Uint64 // bytes fed into zlib (uncompressed gob size)
	gCompressedOut    atomic.Uint64 // bytes out of zlib (compressed payload body)
	gDecompressedMsgs atomic.Uint64 // messages that went through zlib on decode

	gSent        atomic.Uint64 // messages enqueued for transmission (all transports)
	gReceived    atomic.Uint64 // messages delivered to the Network port
	gDroppedFull atomic.Uint64 // messages dropped on full send queues
	gSendErrors  atomic.Uint64 // encode/dial/write failures

	gReconnects atomic.Uint64 // successful dials after a failure or broken connection
	gRequeued   atomic.Uint64 // frames preserved across a broken write for redelivery
	gAbandoned  atomic.Uint64 // queued frames dropped when a peer's retry budget ran out

	gTracedFrames atomic.Uint64 // encoded messages carrying a sampled trace context

	// Wire-codec backend counters (cats_network_codec_* in /metrics).
	gBinaryEncoded  atomic.Uint64 // messages encoded by the binary backend's wire set
	gBinaryDecoded  atomic.Uint64 // binary-format payloads decoded
	gCodecFallbacks atomic.Uint64 // binary-backend encodes that fell back to gob
)

// gPeerStates counts live outbound peer connections per PeerState
// (connecting/up/backoff/down). Indexed by PeerState; a retired peer leaves
// every bucket.
var gPeerStates [4]atomic.Int64

func peerGaugeAdd(s PeerState, delta int64) {
	if s >= 0 && int(s) < len(gPeerStates) {
		gPeerStates[s].Add(delta)
	}
}

// Metrics is a snapshot of the process-wide network counters.
type Metrics struct {
	EncodedMsgs      uint64 `json:"encoded_msgs"`
	EncodedBytes     uint64 `json:"encoded_bytes"`
	DecodedMsgs      uint64 `json:"decoded_msgs"`
	CompressedMsgs   uint64 `json:"compressed_msgs"`
	CompressedIn     uint64 `json:"compressed_bytes_in"`
	CompressedOut    uint64 `json:"compressed_bytes_out"`
	DecompressedMsgs uint64 `json:"decompressed_msgs"`
	Sent             uint64 `json:"sent"`
	Received         uint64 `json:"received"`
	DroppedFull      uint64 `json:"dropped_full"`
	SendErrors       uint64 `json:"send_errors"`
	Reconnects       uint64 `json:"reconnects"`
	Requeued         uint64 `json:"requeued"`
	Abandoned        uint64 `json:"abandoned"`
	TracedFrames     uint64 `json:"traced_frames"`
	BinaryEncoded    uint64 `json:"codec_binary_encoded"`
	BinaryDecoded    uint64 `json:"codec_binary_decoded"`
	CodecFallbacks   uint64 `json:"codec_fallbacks"`
	PeersConnecting  int64  `json:"peers_connecting"`
	PeersUp          int64  `json:"peers_up"`
	PeersBackoff     int64  `json:"peers_backoff"`
	PeersDown        int64  `json:"peers_down"`
}

// GlobalMetrics snapshots the process-wide network counters.
func GlobalMetrics() Metrics {
	return Metrics{
		EncodedMsgs:      gEncodedMsgs.Load(),
		EncodedBytes:     gEncodedBytes.Load(),
		DecodedMsgs:      gDecodedMsgs.Load(),
		CompressedMsgs:   gCompressedMsgs.Load(),
		CompressedIn:     gCompressedIn.Load(),
		CompressedOut:    gCompressedOut.Load(),
		DecompressedMsgs: gDecompressedMsgs.Load(),
		Sent:             gSent.Load(),
		Received:         gReceived.Load(),
		DroppedFull:      gDroppedFull.Load(),
		SendErrors:       gSendErrors.Load(),
		Reconnects:       gReconnects.Load(),
		Requeued:         gRequeued.Load(),
		Abandoned:        gAbandoned.Load(),
		TracedFrames:     gTracedFrames.Load(),
		BinaryEncoded:    gBinaryEncoded.Load(),
		BinaryDecoded:    gBinaryDecoded.Load(),
		CodecFallbacks:   gCodecFallbacks.Load(),
		PeersConnecting:  gPeerStates[PeerConnecting].Load(),
		PeersUp:          gPeerStates[PeerUp].Load(),
		PeersBackoff:     gPeerStates[PeerBackoff].Load(),
		PeersDown:        gPeerStates[PeerDown].Load(),
	}
}
