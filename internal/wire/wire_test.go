package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand"
	"reflect"
	"runtime"
	"testing"
	"testing/quick"

	"modab/internal/types"
)

func TestWriterReaderRoundTrip(t *testing.T) {
	w := NewWriter(64)
	w.Uint8(0xAB)
	w.Uint32(0xDEADBEEF)
	w.Uint64(0x0123456789ABCDEF)
	w.Int32(-42)
	w.Bool(true)
	w.Bool(false)
	w.Bytes32([]byte("hello"))
	w.Raw([]byte{1, 2, 3})

	r := NewReader(w.Bytes())
	if got := r.Uint8(); got != 0xAB {
		t.Errorf("Uint8 = %#x", got)
	}
	if got := r.Uint32(); got != 0xDEADBEEF {
		t.Errorf("Uint32 = %#x", got)
	}
	if got := r.Uint64(); got != 0x0123456789ABCDEF {
		t.Errorf("Uint64 = %#x", got)
	}
	if got := r.Int32(); got != -42 {
		t.Errorf("Int32 = %d", got)
	}
	if got := r.Bool(); got != true {
		t.Errorf("Bool = %v", got)
	}
	if got := r.Bool(); got != false {
		t.Errorf("Bool = %v", got)
	}
	if got := r.Bytes32(); !bytes.Equal(got, []byte("hello")) {
		t.Errorf("Bytes32 = %q", got)
	}
	if got := r.Rest(); !bytes.Equal(got, []byte{1, 2, 3}) {
		t.Errorf("Rest = %v", got)
	}
	r.ExpectEOF()
	if err := r.Err(); err != nil {
		t.Fatalf("unexpected error: %v", err)
	}
}

func TestReaderShortBuffer(t *testing.T) {
	r := NewReader([]byte{1, 2})
	_ = r.Uint32()
	if !errors.Is(r.Err(), ErrShortBuffer) {
		t.Fatalf("want ErrShortBuffer, got %v", r.Err())
	}
	// Sticky: further reads return zero values, error is preserved.
	if got := r.Uint64(); got != 0 {
		t.Errorf("read after error = %d", got)
	}
	if !errors.Is(r.Err(), ErrShortBuffer) {
		t.Fatalf("error not sticky: %v", r.Err())
	}
}

func TestReaderTrailing(t *testing.T) {
	r := NewReader([]byte{1, 2, 3})
	_ = r.Uint8()
	r.ExpectEOF()
	if !errors.Is(r.Err(), ErrTrailing) {
		t.Fatalf("want ErrTrailing, got %v", r.Err())
	}
}

func TestBytes32TooLarge(t *testing.T) {
	w := NewWriter(8)
	w.Uint32(MaxChunk + 1)
	r := NewReader(w.Bytes())
	_ = r.Bytes32()
	if !errors.Is(r.Err(), ErrTooLarge) {
		t.Fatalf("want ErrTooLarge, got %v", r.Err())
	}
}

func TestBytes32CopyIsSafe(t *testing.T) {
	w := NewWriter(16)
	w.Bytes32([]byte{9, 9, 9})
	buf := w.Bytes()
	r := NewReader(buf)
	got := r.Bytes32()
	buf[4] = 7 // mutate the underlying buffer
	if got[0] != 9 {
		t.Fatal("Bytes32 result aliases the input buffer")
	}
}

// TestView32ClipsCapacity: a view ends where its bytes end, so appending
// to it cannot overwrite the next field of the buffer.
func TestView32ClipsCapacity(t *testing.T) {
	w := NewWriter(32)
	w.Bytes32([]byte("abc"))
	w.Bytes32([]byte("next"))
	buf := w.Bytes()
	before := bytes.Clone(buf)
	r := NewReader(buf)
	v := r.View32()
	if len(v) != 3 || cap(v) != 3 {
		t.Fatalf("View32 len/cap = %d/%d, want 3/3", len(v), cap(v))
	}
	_ = append(v, "XXXXXXXX"...)
	if !bytes.Equal(buf, before) {
		t.Fatalf("append to a view changed the buffer: %q, was %q", buf, before)
	}
	if got := r.View32(); string(got) != "next" {
		t.Fatalf("next field = %q after an append to the previous view", got)
	}
}

func TestAppMsgRoundTripQuick(t *testing.T) {
	f := func(sender int32, seq uint64, body []byte) bool {
		m := AppMsg{ID: types.MsgID{Sender: types.ProcessID(sender), Seq: seq}, Body: body}
		w := NewWriter(m.WireSize())
		m.Marshal(w)
		if w.Len() != m.WireSize() {
			return false
		}
		r := NewReader(w.Bytes())
		got := unmarshalAppMsg(r)
		r.ExpectEOF()
		if r.Err() != nil {
			return false
		}
		return got.ID == m.ID && bytes.Equal(got.Body, m.Body)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// randomBatch builds a batch with the given generator.
func randomBatch(rng *rand.Rand, size int) Batch {
	b := make(Batch, size)
	for i := range b {
		body := make([]byte, rng.Intn(64))
		rng.Read(body)
		b[i] = AppMsg{
			ID:   types.MsgID{Sender: types.ProcessID(rng.Intn(8)), Seq: rng.Uint64() % 1000},
			Body: body,
		}
	}
	return b
}

func TestBatchRoundTripQuick(t *testing.T) {
	f := func(seed int64, size uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		b := randomBatch(rng, int(size%32))
		w := NewWriter(b.WireSize())
		b.Marshal(w)
		if w.Len() != b.WireSize() {
			return false
		}
		r := NewReader(w.Bytes())
		got := UnmarshalBatch(r)
		r.ExpectEOF()
		if r.Err() != nil {
			return false
		}
		return reflect.DeepEqual(got, b) || (len(b) == 0 && len(got) == 0)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestBatchSortDeterministicQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		b := randomBatch(rng, 20)
		b.SortDeterministic()
		for i := 1; i < len(b); i++ {
			if b[i].ID.Compare(b[i-1].ID) < 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestBatchPayloadBytesAndIDs(t *testing.T) {
	b := Batch{
		{ID: types.MsgID{Sender: 0, Seq: 1}, Body: make([]byte, 10)},
		{ID: types.MsgID{Sender: 1, Seq: 2}, Body: make([]byte, 22)},
	}
	if got := b.PayloadBytes(); got != 32 {
		t.Errorf("PayloadBytes = %d, want 32", got)
	}
	ids := b.IDs()
	if len(ids) != 2 || ids[0] != b[0].ID || ids[1] != b[1].ID {
		t.Errorf("IDs = %v", ids)
	}
}

func TestBatchCorruptDecode(t *testing.T) {
	// A count prefix claiming many messages (or decided instances) with a
	// truncated body must fail cleanly, not panic or over-allocate: the
	// largest count the size guard admits, in a frame of a few bytes,
	// must not size an allocation.
	for _, n := range []uint32{1000, MaxChunk / appMsgHeaderBytes} {
		w := NewWriter(8)
		w.Uint32(n)
		resp := NewWriter(32)
		AppendRecoverRespFrame(resp, RecoverResp{})
		binary.BigEndian.PutUint32(resp.Bytes()[17:], n)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		r := NewReader(w.Bytes())
		got := UnmarshalBatch(r)
		_, rerr := UnmarshalRecoverResp(resp.Bytes())
		runtime.ReadMemStats(&after)
		if got != nil || r.Err() == nil || rerr == nil {
			t.Fatalf("count %d: corrupt frame decoded: batch %v (%v), recover-resp error %v", n, got, r.Err(), rerr)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
			t.Fatalf("count %d in a %d-byte frame allocated %d bytes", n, len(w.Bytes()), grew)
		}
	}
}
