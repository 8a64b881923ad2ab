package kvstore

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"testing"
)

// FuzzReplayWAL drives the disk decoders — log segment replay and the
// snapshot loader — with adversarial bytes. Replay must not panic, must
// report a valid prefix no longer than its input, and replaying exactly
// that prefix must be clean and yield the same records: the prefix is
// what recovery truncates a torn segment back to. A snapshot that loads
// without error holds exactly the records its body replays to.
func FuzzReplayWAL(f *testing.F) {
	var log []byte
	log = appendFrame(log, "alpha", Version{Seq: 1, Writer: 2}, []byte("one"))
	log = appendFrame(log, "beta", Version{Seq: 3, Writer: 4}, nil)
	log = appendFrame(log, "", Version{}, bytes.Repeat([]byte{7}, 300))
	f.Add(log)
	f.Add(log[:len(log)-5]) // torn payload
	f.Add(log[:3])          // torn header
	flipped := append([]byte(nil), log...)
	flipped[20] ^= 0x40 // CRC mismatch
	f.Add(flipped)
	// A length field promising far more than the input holds.
	f.Add(binary.LittleEndian.AppendUint32(binary.LittleEndian.AppendUint32(nil, ^uint32(0)), 0))
	f.Add(append(append([]byte(nil), snapMagic...), log...))
	f.Add(append(append([]byte(nil), snapMagic...), log[:len(log)-1]...))
	f.Add([]byte{})

	type rec struct {
		key   string
		v     Version
		value []byte
	}
	replay := func(in []byte) (recs []rec, valid int64, torn bool) {
		valid, n, torn := replayWAL(bytes.NewReader(in), int64(len(in)), func(key string, v Version, value []byte) {
			recs = append(recs, rec{key, v, value})
		})
		if n != len(recs) {
			panic("entry count disagrees with records applied")
		}
		return recs, valid, torn
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		recs, valid, torn := replay(in)
		if valid < 0 || valid > int64(len(in)) {
			t.Fatalf("valid = %d outside [0, %d]", valid, len(in))
		}
		if !torn && valid != int64(len(in)) {
			t.Fatalf("clean replay stopped at %d of %d bytes", valid, len(in))
		}
		again, valid2, torn2 := replay(in[:valid])
		if torn2 || valid2 != valid || !reflect.DeepEqual(again, recs) {
			t.Fatalf("replaying the valid prefix: torn=%v valid=%d (want %d), records equal=%v",
				torn2, valid2, valid, reflect.DeepEqual(again, recs))
		}

		var snap []rec
		n, err := readSnapshot(bytes.NewReader(in), int64(len(in)), func(key string, v Version, value []byte) {
			snap = append(snap, rec{key, v, value})
		})
		if err != nil {
			return
		}
		body, _, bodyTorn := replay(in[len(snapMagic):])
		if !bytes.HasPrefix(in, snapMagic) || bodyTorn || n != len(snap) || !reflect.DeepEqual(snap, body) {
			t.Fatalf("snapshot loaded %d records that its body does not replay to", n)
		}
	})
}
