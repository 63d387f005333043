package wire

import (
	"errors"
	"fmt"
)

// ErrBadFrame indicates a diffuse frame with an unknown kind tag.
var ErrBadFrame = errors.New("wire: unknown frame kind")

// Diffuse frame kinds: the first byte of an abcast diffusion payload
// selects between a single application message and a sender-side batch.
// The kind byte is one of the header bytes the paper's §5.2.2 data-volume
// analysis counts per layer; batching amortizes it (and every other
// per-frame header byte) over the messages of the batch.
const (
	// FrameAppMsg tags a frame carrying exactly one AppMsg.
	FrameAppMsg uint8 = 1
	// FrameBatch tags a frame carrying a count-prefixed Batch.
	FrameBatch uint8 = 2
)

// AppendMsgFrame appends a single-message diffuse frame to w: the kind
// tag followed by one AppMsg.
func AppendMsgFrame(w *Writer, m AppMsg) {
	w.Uint8(FrameAppMsg)
	m.Marshal(w)
}

// AppendBatchFrame appends a batch diffuse frame to w: the kind tag, a
// uint32 message count, then each message with its own length-prefixed
// body. The per-frame overhead (kind + count + the enclosing layer and
// transport headers) is paid once for the whole batch.
func AppendBatchFrame(w *Writer, b Batch) {
	w.Uint8(FrameBatch)
	b.Marshal(w)
}

// UnmarshalFrame decodes either diffuse frame kind into a Batch; a
// single-message frame decodes as a batch of one, so receivers process
// both shapes through one path. The bodies are views into data, which
// the engine owns (engine.Engine.HandleMessage) and nothing changes.
func UnmarshalFrame(data []byte) (Batch, error) { return AppendFrame(nil, data) }

// AppendFrame is UnmarshalFrame into dst's storage, for a receiver that
// keeps no batch and so decodes every frame into one buffer.
func AppendFrame(dst Batch, data []byte) (Batch, error) {
	r := NewReader(data)
	kind := r.Uint8()
	if err := r.Err(); err != nil {
		return nil, err
	}
	var b Batch
	switch kind {
	case FrameAppMsg:
		b = append(dst[:0], unmarshalAppMsg(r))
	case FrameBatch:
		b = unmarshalBatch(r, true, dst)
	default:
		return nil, fmt.Errorf("%w: %d", ErrBadFrame, kind)
	}
	r.ExpectEOF()
	if err := r.Err(); err != nil {
		return nil, err
	}
	return b, nil
}
