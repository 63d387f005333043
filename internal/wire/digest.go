package wire

import (
	"errors"
	"fmt"
	"hash/crc32"

	"modab/internal/types"
)

// Digest-ordering frame kinds. Under modab.WithDigestOrdering the sender
// disseminates a batch's payload bytes exactly once (FrameAnnounce through
// the internal/dissem seam), and consensus then orders only a compact
// Descriptor — so proposal/estimate/ack/decision frames stop scaling with
// payload size. FramePayloadFetch/FramePayloadResp repair the split: a
// process that decided a descriptor whose payload never arrived (lost
// announce, restart, snapshot install) refetches the bytes from a live
// holder before adelivering.
const (
	// FrameAnnounce carries one payload batch with its descriptor: the
	// one-time payload dissemination of digest ordering.
	FrameAnnounce uint8 = 8
	// FramePayloadFetch asks a peer for the payload batch of a descriptor
	// (decided-but-not-resident repair path).
	FramePayloadFetch uint8 = 9
	// FramePayloadResp answers FramePayloadFetch with the descriptor and
	// its payload batch, validated exactly like an announce.
	FramePayloadResp uint8 = 10
)

// ErrDigestMismatch indicates a descriptor whose payload batch does not
// match it: wrong message count, non-contiguous or foreign message IDs, or
// a CRC digest disagreement. Rejected at the wire layer so no engine ever
// ingests a payload under the wrong descriptor.
var ErrDigestMismatch = errors.New("wire: descriptor/payload mismatch")

// descriptorTable is the CRC-32C (Castagnoli) polynomial, matching the
// WAL's record checksums.
var descriptorTable = crc32.MakeTable(crc32.Castagnoli)

// Descriptor compactly identifies one disseminated payload batch: this is
// the unit digest ordering runs consensus on, a constant ~32 wire bytes no
// matter how many kilobytes the batch carries.
type Descriptor struct {
	// Origin is the process that sealed and disseminated the batch.
	Origin types.ProcessID
	// DSeq is the origin-assigned descriptor sequence number,
	// incarnation-tagged in its high 16 bits (like rbcast broadcast
	// numbering) so a restarted origin's re-announced backlog — possibly
	// regrouped into different batch boundaries — never collides with its
	// pre-crash descriptors.
	DSeq uint64
	// FirstSeq is the application sequence number of the batch's first
	// message; the batch covers [FirstSeq, FirstSeq+Count).
	FirstSeq uint64
	// Count is the number of messages in the batch (> 0).
	Count uint32
	// Digest is the CRC-32C over the batch's message bodies in batch
	// order.
	Digest uint32
}

// descriptorBodyBytes is the encoded descriptor body carried inside the
// pseudo application message consensus orders: FirstSeq + Count + Digest.
const descriptorBodyBytes = 8 + 4 + 4

// DSeqIncarnationShift splits a descriptor sequence number: the high 16
// bits carry the origin's boot count, the low 48 its per-incarnation
// counter — the same layout as the dissemination and rbcast numbering, and
// for the same reason (a restarted origin's regrouped descriptors must
// never collide with its pre-crash ones).
const DSeqIncarnationShift = 48

// BatchDigest returns the CRC-32C over the batch's message bodies in
// batch order.
func BatchDigest(b Batch) uint32 {
	var sum uint32
	for _, m := range b {
		sum = crc32.Update(sum, descriptorTable, m.Body)
	}
	return sum
}

// DescriptorFor builds the descriptor of a sealed single-origin batch with
// contiguous sequence numbers, the only batch shape digest ordering
// disseminates. dseq is the origin's incarnation-tagged descriptor
// sequence number.
func DescriptorFor(b Batch, dseq uint64) (Descriptor, error) {
	if err := validateShape(b); err != nil {
		return Descriptor{}, err
	}
	return Descriptor{
		Origin:   b[0].ID.Sender,
		DSeq:     dseq,
		FirstSeq: b[0].ID.Seq,
		Count:    uint32(len(b)),
		Digest:   BatchDigest(b),
	}, nil
}

// validateShape checks the single-origin contiguous-seq batch shape.
func validateShape(b Batch) error {
	if len(b) == 0 {
		return fmt.Errorf("%w: empty batch", ErrDigestMismatch)
	}
	origin, first := b[0].ID.Sender, b[0].ID.Seq
	for i, m := range b {
		if m.ID.Sender != origin || m.ID.Seq != first+uint64(i) {
			return fmt.Errorf("%w: message %d is %v, want (%v,%d)",
				ErrDigestMismatch, i, m.ID, origin, first+uint64(i))
		}
	}
	return nil
}

// Validate checks that batch b is exactly the payload the descriptor
// announces: matching count, contiguous IDs from (Origin, FirstSeq), and a
// matching CRC digest.
func (d Descriptor) Validate(b Batch) error {
	if uint32(len(b)) != d.Count {
		return fmt.Errorf("%w: %d messages, descriptor says %d", ErrDigestMismatch, len(b), d.Count)
	}
	if err := validateShape(b); err != nil {
		return err
	}
	if b[0].ID.Sender != d.Origin || b[0].ID.Seq != d.FirstSeq {
		return fmt.Errorf("%w: batch starts at (%v,%d), descriptor says (%v,%d)",
			ErrDigestMismatch, b[0].ID.Sender, b[0].ID.Seq, d.Origin, d.FirstSeq)
	}
	if sum := BatchDigest(b); sum != d.Digest {
		return fmt.Errorf("%w: digest %08x, descriptor says %08x", ErrDigestMismatch, sum, d.Digest)
	}
	return nil
}

// AppMsg encodes the descriptor as the pseudo application message
// consensus orders in digest mode: ID = (Origin, DSeq), body =
// FirstSeq|Count|Digest. The consensus layers stay payload-agnostic — they
// order it like any 16-byte message.
func (d Descriptor) AppMsg() AppMsg {
	w := NewWriter(descriptorBodyBytes)
	w.Uint64(d.FirstSeq)
	w.Uint32(d.Count)
	w.Uint32(d.Digest)
	return AppMsg{ID: types.MsgID{Sender: d.Origin, Seq: d.DSeq}, Body: w.Bytes()}
}

// ParseDescriptor decodes a descriptor pseudo-message produced by
// Descriptor.AppMsg.
func ParseDescriptor(m AppMsg) (Descriptor, error) {
	if len(m.Body) != descriptorBodyBytes {
		return Descriptor{}, fmt.Errorf("%w: descriptor body of %d bytes", ErrDigestMismatch, len(m.Body))
	}
	r := NewReader(m.Body)
	d := Descriptor{
		Origin:   m.ID.Sender,
		DSeq:     m.ID.Seq,
		FirstSeq: r.Uint64(),
		Count:    r.Uint32(),
		Digest:   r.Uint32(),
	}
	if d.Count == 0 {
		return Descriptor{}, fmt.Errorf("%w: zero-count descriptor", ErrDigestMismatch)
	}
	return d, nil
}

// marshalDescriptor appends the full descriptor (Origin and DSeq
// included — the framed forms stand alone, unlike the pseudo-message
// body).
func (d Descriptor) marshal(w *Writer) {
	w.Int32(int32(d.Origin))
	w.Uint64(d.DSeq)
	w.Uint64(d.FirstSeq)
	w.Uint32(d.Count)
	w.Uint32(d.Digest)
}

func unmarshalDescriptor(r *Reader) Descriptor {
	return Descriptor{
		Origin:   types.ProcessID(r.Int32()),
		DSeq:     r.Uint64(),
		FirstSeq: r.Uint64(),
		Count:    r.Uint32(),
		Digest:   r.Uint32(),
	}
}

// AppendAnnounceFrame appends a payload-announce frame: the descriptor
// followed by its payload batch. The caller must pass a batch the
// descriptor validates (DescriptorFor builds both together).
func AppendAnnounceFrame(w *Writer, d Descriptor, b Batch) {
	w.Uint8(FrameAnnounce)
	d.marshal(w)
	b.Marshal(w)
}

// AppendPayloadRespFrame appends a payload-fetch response: identical
// layout to an announce under its own kind byte, so receivers can tell a
// repair re-serve from first-time dissemination.
func AppendPayloadRespFrame(w *Writer, d Descriptor, b Batch) {
	w.Uint8(FramePayloadResp)
	d.marshal(w)
	b.Marshal(w)
}

// unmarshalDescriptorBatch decodes the shared announce/payload-resp
// layout, enforcing descriptor/payload consistency at the wire layer. The
// bodies are views into data (Reader.View32), not copies: the payload
// store keeps them resident, so data must never change afterwards — the
// ownership every driver gives engine.Engine.HandleMessage.
func unmarshalDescriptorBatch(data []byte, want uint8) (Descriptor, Batch, error) {
	r := NewReader(data)
	kind := r.Uint8()
	d := unmarshalDescriptor(r)
	b := unmarshalBatch(r, true, nil)
	r.ExpectEOF()
	if err := r.Err(); err != nil {
		return Descriptor{}, nil, err
	}
	if kind != want {
		return Descriptor{}, nil, fmt.Errorf("%w: %d", ErrBadFrame, kind)
	}
	if err := d.Validate(b); err != nil {
		return Descriptor{}, nil, err
	}
	return d, b, nil
}

// UnmarshalAnnounceFrame decodes and validates a FrameAnnounce payload
// (kind byte included). A batch that does not match its descriptor —
// count, ID range, or CRC digest — is rejected here, before any engine
// state is touched.
func UnmarshalAnnounceFrame(data []byte) (Descriptor, Batch, error) {
	return unmarshalDescriptorBatch(data, FrameAnnounce)
}

// UnmarshalPayloadRespFrame decodes and validates a FramePayloadResp
// payload (kind byte included).
func UnmarshalPayloadRespFrame(data []byte) (Descriptor, Batch, error) {
	return unmarshalDescriptorBatch(data, FramePayloadResp)
}

// AppendPayloadFetchFrame appends a payload-fetch request carrying the
// wanted descriptor.
func AppendPayloadFetchFrame(w *Writer, d Descriptor) {
	w.Uint8(FramePayloadFetch)
	d.marshal(w)
}

// UnmarshalPayloadFetch decodes a FramePayloadFetch payload (kind byte
// included).
func UnmarshalPayloadFetch(data []byte) (Descriptor, error) {
	r := NewReader(data)
	kind := r.Uint8()
	d := unmarshalDescriptor(r)
	r.ExpectEOF()
	if err := r.Err(); err != nil {
		return Descriptor{}, err
	}
	if kind != FramePayloadFetch {
		return Descriptor{}, fmt.Errorf("%w: %d", ErrBadFrame, kind)
	}
	if d.Count == 0 {
		return Descriptor{}, fmt.Errorf("%w: zero-count descriptor", ErrDigestMismatch)
	}
	return d, nil
}
