package wire

import "sync"

// maxPooledWriter bounds the capacity of buffers kept in the pool: an
// occasional giant frame (up to MaxChunk) must not pin megabytes of
// scratch forever. Oversized writers are simply dropped on PutWriter.
const maxPooledWriter = 1 << 20

// writerPool recycles Writer buffers across encode calls. The hot encode
// path — diffuse frames, batch frames, engine messages — marshals into a
// pooled writer, hands the bytes to a copying consumer, and returns the
// writer, so steady-state encoding allocates nothing. engine.Env.Send,
// NetSend, NetSendMembers and Transport.Send are such consumers.
var writerPool = sync.Pool{New: func() any { return new(Writer) }}

// GetWriter returns a pooled Writer with at least size bytes of capacity.
// Pair it with PutWriter once the encoded bytes have been consumed.
func GetWriter(size int) *Writer {
	w := writerPool.Get().(*Writer)
	if cap(w.buf) < size {
		w.buf = make([]byte, 0, size)
	}
	return w
}

// PutWriter resets w and returns it to the pool. The caller must not use
// w — or any slice previously obtained from w.Bytes() — afterwards; hand
// the bytes only to consumers that copy before returning.
func PutWriter(w *Writer) {
	if cap(w.buf) > maxPooledWriter {
		return
	}
	w.Reset()
	writerPool.Put(w)
}

// Reset truncates the Writer for reuse, keeping its capacity.
func (w *Writer) Reset() { w.buf = w.buf[:0] }
