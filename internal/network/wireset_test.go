package network_test

import (
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/network"
	"repro/internal/network/wiretest"

	// Every package that defines node-to-node messages. Linking them here
	// puts all their wire tags in one table — RegisterWire panics at init
	// if two of them claim one tag — and lets FuzzDecodePayload, which
	// shares this test binary, reach their decoders.
	_ "repro/internal/abd"
	_ "repro/internal/bootstrap"
	_ "repro/internal/cyclon"
	_ "repro/internal/fd"
	_ "repro/internal/handoff"
	_ "repro/internal/monitor"
	_ "repro/internal/ring"
)

// wireTags is the wire protocol's tag assignment. Tags are forever: a
// deployed peer decodes by them, so changing or reusing one is a protocol
// break and has to show up as an edit of this table. 0xF0 stays free — the
// benchmark (bench/kvbench) registers its probe message there.
var wireTags = map[byte]string{
	0x05: "abd.nack", 0x06: "abd.opBatch", 0x07: "abd.opBatchAck",
	0x10: "handoff.pullReq", 0x11: "handoff.items",
	0x20: "fd.ping", 0x21: "fd.pong",
	0x28: "cyclon.shuffle", 0x29: "cyclon.shuffleReply",
	0x30: "ring.joinReq", 0x31: "ring.joinResp", 0x32: "ring.stabilizeReq",
	0x33: "ring.stabilizeResp", 0x34: "ring.notify",
	0x40: "bootstrap.getPeers", 0x41: "bootstrap.peers", 0x42: "bootstrap.keepalive",
	0x48: "monitor.report",
	0xEE: "test.blob", // this package's own test message
}

// retiredWireTags belonged to ABD's single-op quorum messages, which the
// batch pair replaced. They are never reassigned: a peer still sending one
// must get a decode error, not another message's decoder. Their seed
// frames stay in the corpus as negative inputs.
var retiredWireTags = map[byte]string{
	0x01: "abd.read", 0x02: "abd.readAck", 0x03: "abd.write", 0x04: "abd.writeAck",
}

func TestWireTagsUnique(t *testing.T) {
	got := network.WireTagTable()
	if !reflect.DeepEqual(got, wireTags) {
		t.Fatalf("registered wire tags differ from the pinned assignment:\n got  %v\n want %v", got, wireTags)
	}
}

// TestWireSeedCorpus keeps the FuzzDecodePayload corpus honest: every
// registered tag has a seed file, every seed file is a valid frame of the
// tag it is named after (wire-<name> or wire-<name>.<variant>), and the
// retired tags' seeds fail to decode without spoiling the decoder for the
// next frame. (The protocol packages' round-trip tests pin the files'
// contents; this pins their coverage.)
func TestWireSeedCorpus(t *testing.T) {
	dir := filepath.Join("testdata", "fuzz", "FuzzDecodePayload")
	files, err := filepath.Glob(filepath.Join(dir, "wire-*"))
	if err != nil {
		t.Fatal(err)
	}
	seeded := make(map[string]bool)
	var valid []byte
	for _, path := range files {
		name := strings.TrimPrefix(filepath.Base(path), "wire-")
		frame, err := wiretest.ReadSeed(path)
		if err != nil {
			t.Fatal(err)
		}
		if len(frame) < 2 {
			t.Errorf("%s: frame has no tag byte", path)
			continue
		}
		if retired, ok := retiredWireTags[frame[1]]; ok {
			if name != retired {
				t.Errorf("%s: frame carries the retired tag of %s", path, retired)
			}
			if m, err := network.DecodePayload(frame); err == nil {
				t.Errorf("%s: frame of a retired tag decoded to %T", path, m)
			}
			seeded[name] = true
			continue
		}
		tagName := wireTags[frame[1]]
		if name != tagName && !strings.HasPrefix(name, tagName+".") {
			t.Errorf("%s: frame carries the tag of %q", path, tagName)
			continue
		}
		if _, err := network.DecodePayload(frame); err != nil {
			t.Errorf("%s: not a valid frame: %v", path, err)
		}
		seeded[tagName] = true
		valid = frame
	}
	for _, name := range wireTags {
		if name != "test.blob" && !seeded[name] {
			t.Errorf("wire message %s has no seed in %s", name, dir)
		}
	}
	for _, name := range retiredWireTags {
		if !seeded[name] {
			t.Errorf("retired wire message %s lost its negative seed in %s", name, dir)
		}
	}
	// The rejected retired frames must have left decoding (and its pooled
	// reader) usable for the frames that follow on a connection.
	if _, err := network.DecodePayload(valid); err != nil {
		t.Fatalf("valid frame no longer decodes after the retired ones were rejected: %v", err)
	}
}
