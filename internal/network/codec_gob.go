package network

import (
	"bytes"
	"compress/zlib"
	"encoding/gob"
	"fmt"
	"io"
	"sync"

	"repro/internal/tracing"
)

// Codec is the gob wire-codec backend, optionally zlib-compressed (the
// paper's transports apply Zlib compression). It handles every Registered
// message type: the binary codec, the transport default, falls back to it
// for types outside the wire set. The zero value is a plain gob codec
// without compression.
type Codec struct {
	// Compress enables zlib compression of each payload.
	Compress bool
}

var _ WireCodec = Codec{}

// Name returns the registry name: "gob", or "gob+zlib" when compressing.
func (c Codec) Name() string {
	if c.Compress {
		return "gob+zlib"
	}
	return "gob"
}

// zlib writers and readers hold large window buffers; pool them so
// per-message compression does not pay their allocation every time. The
// reader pool mirrors the writer pool: Decode resets a pooled inflater
// onto each compressed payload instead of allocating a fresh zlib window
// per frame.
var zlibWriterPool = sync.Pool{
	New: func() any {
		w, err := zlib.NewWriterLevel(io.Discard, zlib.BestSpeed)
		if err != nil {
			panic(err) // BestSpeed is always a valid level
		}
		return w
	},
}

var zlibReaderPool = sync.Pool{}

// encBufPool recycles the per-message scratch buffer gob encodes into, so
// Encode pays only the one unavoidable allocation: the returned payload,
// sized exactly, written once. The gob encoder itself cannot be pooled: a
// reused encoder omits type descriptors it already sent, which would make
// payloads non-self-contained and undecodable by a fresh decoder.
var encBufPool = sync.Pool{
	New: func() any { return new(bytes.Buffer) },
}

// appendWriter adapts an append-grown byte slice to io.Writer so the zlib
// writer can deflate straight into the caller's buffer.
type appendWriter struct{ b []byte }

func (w *appendWriter) Write(p []byte) (int, error) {
	w.b = append(w.b, p...)
	return len(p), nil
}

// EncodeAppend appends m's payload to dst: the format flag, then the gob
// body (deflated when compressing).
func (c Codec) EncodeAppend(dst []byte, m Message) ([]byte, error) {
	// Trace-annotated frames (messages carrying a sampled trace context)
	// are counted at the wire boundary: the ratio against encoded_msgs is
	// the observed sampling rate actually crossing the network.
	if tm, ok := m.(tracing.Traced); ok && tm.TraceContext().TraceID != 0 {
		gTracedFrames.Add(1)
	}
	buf := encBufPool.Get().(*bytes.Buffer)
	defer encBufPool.Put(buf)
	buf.Reset()
	if err := gob.NewEncoder(buf).Encode(envelope{M: m}); err != nil {
		return dst, fmt.Errorf("network: encode %T: %w", m, err)
	}

	start := len(dst)
	if !c.Compress {
		dst = append(dst, flagPlain)
		dst = append(dst, buf.Bytes()...)
		gEncodedMsgs.Add(1)
		gEncodedBytes.Add(uint64(len(dst) - start))
		return dst, nil
	}

	dst = append(dst, flagZlib)
	aw := appendWriter{b: dst}
	zw := zlibWriterPool.Get().(*zlib.Writer)
	zw.Reset(&aw)
	_, werr := zw.Write(buf.Bytes())
	cerr := zw.Close()
	zlibWriterPool.Put(zw)
	if werr != nil {
		return dst[:start], fmt.Errorf("network: compress %T: %w", m, werr)
	}
	if cerr != nil {
		return dst[:start], fmt.Errorf("network: compress %T: %w", m, cerr)
	}
	dst = aw.b
	gEncodedMsgs.Add(1)
	gEncodedBytes.Add(uint64(len(dst) - start))
	gCompressedMsgs.Add(1)
	gCompressedIn.Add(uint64(buf.Len()))
	gCompressedOut.Add(uint64(len(dst) - start - 1)) // exclude the flag byte
	return dst, nil
}

// Encode serializes a message into a fresh self-contained payload.
func (c Codec) Encode(m Message) ([]byte, error) {
	return c.EncodeAppend(nil, m)
}

// decodeGob deserializes a flagPlain or flagZlib payload.
func decodeGob(payload []byte) (Message, error) {
	body := payload[1:]
	var r io.Reader = bytes.NewReader(body)
	switch payload[0] {
	case flagPlain:
	case flagZlib:
		if pooled := zlibReaderPool.Get(); pooled != nil {
			zr := pooled.(io.ReadCloser)
			if err := zr.(zlib.Resetter).Reset(r, nil); err != nil {
				return nil, fmt.Errorf("network: decompress: %w", err)
			}
			defer func() {
				_ = zr.Close()
				zlibReaderPool.Put(zr)
			}()
			r = zr
		} else {
			zr, err := zlib.NewReader(r)
			if err != nil {
				return nil, fmt.Errorf("network: decompress: %w", err)
			}
			defer func() {
				_ = zr.Close()
				zlibReaderPool.Put(zr)
			}()
			r = zr
		}
	default:
		return nil, fmt.Errorf("network: decode: unknown compression flag 0x%02x", payload[0])
	}
	var env envelope
	if err := gob.NewDecoder(r).Decode(&env); err != nil {
		return nil, fmt.Errorf("network: decode: %w", err)
	}
	if env.M == nil {
		return nil, fmt.Errorf("network: decode: nil message")
	}
	gDecodedMsgs.Add(1)
	if payload[0] == flagZlib {
		gDecompressedMsgs.Add(1)
	}
	return env.M, nil
}
