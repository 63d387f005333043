// Package wire implements the binary codec used by every protocol layer.
//
// The codec is deliberately explicit: no reflection, fixed-width integers,
// length-prefixed byte strings. Every layer of the modular stack marshals
// its own header around the payload handed down by the layer above, so the
// number of header bytes on the wire grows with the number of composed
// layers — one of the costs of modularity measured by the paper.
//
// Writer and Reader carry a sticky error: after the first failure all
// subsequent operations are no-ops, so call sites check the error once at
// the end (the bufio.Scanner idiom).
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Codec errors.
var (
	// ErrShortBuffer indicates a truncated message.
	ErrShortBuffer = errors.New("wire: short buffer")
	// ErrTooLarge indicates a length prefix exceeding sane bounds.
	ErrTooLarge = errors.New("wire: length prefix too large")
	// ErrTrailing indicates unconsumed trailing bytes where none were expected.
	ErrTrailing = errors.New("wire: trailing bytes")
)

// MaxChunk bounds any single length-prefixed chunk (64 MiB). The paper's
// workloads top out at 32 KiB payloads; the bound exists to fail fast on
// corrupt frames rather than allocate absurd buffers.
const MaxChunk = 64 << 20

// Writer appends big-endian binary data to a buffer.
// The zero value is ready to use.
type Writer struct {
	buf []byte
}

// NewWriter returns a Writer with capacity pre-allocated for size bytes.
func NewWriter(size int) *Writer {
	return &Writer{buf: make([]byte, 0, size)}
}

// Bytes returns the accumulated buffer. The buffer is owned by the Writer
// until the caller takes it; callers that retain it must not reuse the
// Writer.
func (w *Writer) Bytes() []byte { return w.buf }

// Len returns the number of bytes written so far.
func (w *Writer) Len() int { return len(w.buf) }

// Uint8 appends one byte.
func (w *Writer) Uint8(v uint8) { w.buf = append(w.buf, v) }

// Uint32 appends a big-endian uint32.
func (w *Writer) Uint32(v uint32) { w.buf = binary.BigEndian.AppendUint32(w.buf, v) }

// Uint64 appends a big-endian uint64.
func (w *Writer) Uint64(v uint64) { w.buf = binary.BigEndian.AppendUint64(w.buf, v) }

// Int32 appends a big-endian int32 (two's complement).
func (w *Writer) Int32(v int32) { w.Uint32(uint32(v)) }

// Bool appends a boolean as one byte.
func (w *Writer) Bool(v bool) {
	if v {
		w.Uint8(1)
	} else {
		w.Uint8(0)
	}
}

// Bytes32 appends a uint32 length prefix followed by the bytes.
func (w *Writer) Bytes32(b []byte) {
	w.Uint32(uint32(len(b)))
	w.buf = append(w.buf, b...)
}

// Raw appends bytes with no length prefix. Used for nesting an
// already-marshaled inner message as the tail of an outer one.
func (w *Writer) Raw(b []byte) { w.buf = append(w.buf, b...) }

// Reader consumes big-endian binary data from a buffer with a sticky error.
type Reader struct {
	buf []byte
	off int
	err error
}

// NewReader returns a Reader over buf. The Reader does not copy buf;
// callers must not mutate it while reading.
func NewReader(buf []byte) *Reader { return &Reader{buf: buf} }

// Err returns the first error encountered, or nil.
func (r *Reader) Err() error { return r.err }

// Len returns the number of unread bytes.
func (r *Reader) Len() int { return len(r.buf) - r.off }

// fail records the first error.
func (r *Reader) fail(err error) {
	if r.err == nil {
		r.err = err
	}
}

func (r *Reader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if r.Len() < n {
		r.fail(fmt.Errorf("%w: need %d bytes, have %d", ErrShortBuffer, n, r.Len()))
		return nil
	}
	b := r.buf[r.off : r.off+n]
	r.off += n
	return b
}

// Uint8 reads one byte.
func (r *Reader) Uint8() uint8 {
	b := r.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

// Uint32 reads a big-endian uint32.
func (r *Reader) Uint32() uint32 {
	b := r.take(4)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint32(b)
}

// Uint64 reads a big-endian uint64.
func (r *Reader) Uint64() uint64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint64(b)
}

// Int32 reads a big-endian int32.
func (r *Reader) Int32() int32 { return int32(r.Uint32()) }

// Bool reads a boolean encoded as one byte. Any nonzero value is true.
func (r *Reader) Bool() bool { return r.Uint8() != 0 }

// View32 reads a uint32 length prefix followed by that many bytes and
// returns them without copying: the slice aliases the Reader's buffer,
// so callers that retain it must not let that buffer change. Its capacity
// is clipped to its length, so an append to it reallocates instead of
// overwriting the bytes that follow in the buffer.
func (r *Reader) View32() []byte {
	n := r.Uint32()
	if r.err == nil && n > MaxChunk {
		r.fail(fmt.Errorf("%w: %d bytes", ErrTooLarge, n))
	}
	b := r.take(int(n))
	return b[:len(b):len(b)]
}

// Bytes32 is View32 into a copy, safe to retain.
func (r *Reader) Bytes32() []byte {
	b := r.View32()
	if b == nil {
		return nil
	}
	return append(make([]byte, 0, len(b)), b...)
}

// Rest returns all unread bytes without copying and advances to the end.
// Used to extract a nested inner message.
func (r *Reader) Rest() []byte {
	if r.err != nil {
		return nil
	}
	b := r.buf[r.off:]
	r.off = len(r.buf)
	return b
}

// ExpectEOF records ErrTrailing if unread bytes remain.
func (r *Reader) ExpectEOF() {
	if r.err == nil && r.Len() != 0 {
		r.fail(fmt.Errorf("%w: %d bytes", ErrTrailing, r.Len()))
	}
}
