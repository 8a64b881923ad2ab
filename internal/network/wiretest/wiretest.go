// Package wiretest holds the checks every binary wire-set message has to
// pass, so each protocol package's wire_test.go states only its sample
// messages: field-exact round trip, allocation-free encode, rejection of a
// corrupt element count, and a pinned seed frame in the FuzzDecodePayload
// corpus.
package wiretest

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"repro/internal/network"
)

// Sample is one message a protocol package submits to the checks. Seed,
// when set, is the registered wire name of its type and makes the sample
// that type's pinned frame in the fuzz corpus; a second pinned frame of a
// type appends a suffix to the name ("abd.opBatch.one"). Further variants
// of a type (empty lists, zero values) leave it empty.
type Sample struct {
	Seed string
	Msg  network.Message
}

// Header is the message header the sample messages share.
func Header() network.Header {
	return network.NewHeader(
		network.Address{Host: "10.0.0.1", Port: 7000},
		network.Address{Host: "10.0.0.2", Port: 7001},
	)
}

func encode(t *testing.T, m network.Message) []byte {
	t.Helper()
	payload, err := network.BinaryCodec{}.Encode(m)
	if err != nil {
		t.Fatalf("%T encode: %v", m, err)
	}
	if !network.IsBinaryPayload(payload) {
		t.Fatalf("%T is not in the binary wire set (gob fallback)", m)
	}
	return payload
}

// RoundTrip drives each sample through the binary codec and back and
// requires field-exact equality: AppendWire and the registered decoder
// must be exact inverses. The frame is scribbled over before comparing, so
// a decoder that hands out views of it fails here too. Samples naming a
// seed are also checked against the corpus (see checkSeed).
func RoundTrip(t *testing.T, samples []Sample) {
	t.Helper()
	for _, s := range samples {
		m := s.Msg
		payload := encode(t, m)
		if s.Seed != "" {
			checkSeed(t, s.Seed, payload)
		}
		got, err := network.DecodePayload(payload)
		if err != nil {
			t.Fatalf("%T decode: %v", m, err)
		}
		for i := range payload {
			payload[i] = 0xA5
		}
		if !reflect.DeepEqual(got, m) {
			t.Fatalf("%T round trip mismatch:\n got  %+v\n want %+v", m, got, m)
		}
	}
}

// EncodeZeroAlloc requires that encoding the (already boxed) samples into
// a recycled buffer allocates nothing.
func EncodeZeroAlloc(t *testing.T, samples []Sample) {
	t.Helper()
	buf := make([]byte, 0, 16<<10)
	var c network.BinaryCodec
	allocs := testing.AllocsPerRun(200, func() {
		for _, s := range samples {
			if out, err := c.EncodeAppend(buf[:0], s.Msg); err != nil || len(out) == 0 {
				t.Fatal("encode failed")
			}
		}
	})
	if allocs != 0 {
		t.Fatalf("wire encode allocates %.1f per run, want 0", allocs)
	}
}

// CorruptCount overwrites the u32 element count that starts tail bytes
// before the end of m's frame with 0xFFFFFFFF and requires the decoder to
// reject it (before sizing any slice by it).
func CorruptCount(t *testing.T, m network.Message, tail int) {
	t.Helper()
	payload := encode(t, m)
	at := len(payload) - tail
	copy(payload[at:at+4], []byte{0xff, 0xff, 0xff, 0xff})
	if _, err := network.DecodePayload(payload); err == nil {
		t.Fatalf("%T: corrupt element count decoded", m)
	}
}

// seedDir is the FuzzDecodePayload seed corpus, relative to the directory
// of a protocol package under internal/.
var seedDir = filepath.Join("..", "network", "testdata", "fuzz", "FuzzDecodePayload")

const seedHeader = "go test fuzz v1\n"

// checkSeed pins a sample's frame as the corpus file wire-<name>: the
// fuzzer starts from one valid frame per wire tag, and a layout change
// shows up as a diff of a checked-in file. UPDATE_WIRE_SEEDS=1 rewrites
// the file.
func checkSeed(t *testing.T, name string, payload []byte) {
	t.Helper()
	path := filepath.Join(seedDir, "wire-"+name)
	if os.Getenv("UPDATE_WIRE_SEEDS") != "" {
		body := fmt.Sprintf("%s[]byte(%s)\n", seedHeader, strconv.Quote(string(payload)))
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	have, err := ReadSeed(path)
	if err != nil {
		t.Fatalf("%v (UPDATE_WIRE_SEEDS=1 go test writes it)", err)
	}
	if !bytes.Equal(have, payload) {
		t.Fatalf("seed %s is not the frame its sample encodes to: the wire layout changed (UPDATE_WIRE_SEEDS=1 go test re-pins it)", path)
	}
}

// ReadSeed returns the bytes of a one-argument []byte corpus file.
func ReadSeed(path string) ([]byte, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("wire seed: %w", err)
	}
	lit, ok := strings.CutPrefix(string(raw), seedHeader+"[]byte(")
	lit, ok2 := strings.CutSuffix(lit, ")\n")
	if !ok || !ok2 {
		return nil, fmt.Errorf("wire seed %s: not a []byte corpus file", path)
	}
	s, err := strconv.Unquote(lit)
	if err != nil {
		return nil, fmt.Errorf("wire seed %s: %w", path, err)
	}
	return []byte(s), nil
}
