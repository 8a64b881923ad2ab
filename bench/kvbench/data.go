package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
)

// Every value the benchmark writes starts with a stamp naming the key it
// belongs to, the client that wrote it and that client's put sequence
// number; the rest is a slice of a seeded filler block whose offset depends
// on the stamp. A reader can therefore tell, from the bytes alone, whether a
// value belongs to the key it asked for, who wrote it and how old it is, and
// whether the payload survived the codec intact.
const (
	stampLen      = 16
	stampMagic    = 0xCA75
	preloadClient = 0xFFFF
	fillerSpan    = 4096
)

type opKind uint8

const (
	kindGet opKind = iota
	kindPut
)

// dataset is everything the program receives: it is a pure function of the
// seed, so the same seed gives the same keys, values and sampled keys.
type dataset struct {
	keys      []string
	filler    []byte
	valueSize int
	// sampled maps a key index to its slot in the per-client histories
	// that feed the linearizability check, -1 for unsampled keys.
	sampled  []int16
	nSampled int
}

func newDataset(seed int64, keys, valueSize, sampledKeys int) *dataset {
	rng := rand.New(rand.NewSource(seed))
	d := &dataset{
		keys:      make([]string, keys),
		filler:    make([]byte, fillerSpan+valueSize),
		valueSize: valueSize,
		sampled:   make([]int16, keys),
	}
	for i := range d.keys {
		d.keys[i] = fmt.Sprintf("k%07d-%08x", i, rng.Uint32())
	}
	rng.Read(d.filler)
	for i := range d.sampled {
		d.sampled[i] = -1
	}
	if sampledKeys > keys {
		sampledKeys = keys
	}
	for _, k := range rng.Perm(keys)[:sampledKeys] {
		d.sampled[k] = int16(d.nSampled)
		d.nSampled++
	}
	return d
}

func fillerOffset(key, seq uint32) int {
	return int((key*2654435761 + seq*40503) % fillerSpan)
}

// value builds the value a client writes. The buffer is fresh on every
// call: over the loopback transport the store keeps the very slice it is
// handed.
func (d *dataset) value(client uint16, key, seq uint32) []byte {
	v := make([]byte, d.valueSize)
	binary.LittleEndian.PutUint16(v[0:], stampMagic)
	binary.LittleEndian.PutUint16(v[2:], client)
	binary.LittleEndian.PutUint32(v[4:], key)
	binary.LittleEndian.PutUint32(v[8:], seq)
	binary.LittleEndian.PutUint32(v[12:], uint32(d.valueSize))
	off := fillerOffset(key, seq)
	copy(v[stampLen:], d.filler[off:])
	return v
}

// check parses a value read back for key and reports who wrote it; ok is
// false when the bytes are not exactly what that writer stored.
func (d *dataset) check(v []byte, key uint32) (client uint16, seq uint32, ok bool) {
	if len(v) != d.valueSize ||
		binary.LittleEndian.Uint16(v[0:]) != stampMagic ||
		binary.LittleEndian.Uint32(v[4:]) != key ||
		binary.LittleEndian.Uint32(v[12:]) != uint32(d.valueSize) {
		return 0, 0, false
	}
	client = binary.LittleEndian.Uint16(v[2:])
	seq = binary.LittleEndian.Uint32(v[8:])
	off := fillerOffset(key, seq)
	return client, seq, bytes.Equal(v[stampLen:], d.filler[off:off+d.valueSize-stampLen])
}

// opStream is one client's operation sequence: kind and key index, drawn
// from the client's own seeded source.
type opStream struct {
	rng      *rand.Rand
	keys     int
	readFrac float64
}

func newOpStream(seed int64, client int, keys int, readFrac float64) opStream {
	return opStream{
		rng:      rand.New(rand.NewSource(seed*1000003 + int64(client) + 1)),
		keys:     keys,
		readFrac: readFrac,
	}
}

func (s *opStream) next() (opKind, uint32) {
	kind := kindPut
	if s.rng.Float64() < s.readFrac {
		kind = kindGet
	}
	return kind, uint32(s.rng.Intn(s.keys))
}
