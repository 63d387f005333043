package rsm

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"modab/internal/dedup"
	"modab/internal/member"
	"modab/internal/types"
	"modab/internal/wire"
)

// fuzzEnvelope builds a small valid snapshot envelope encoding.
func fuzzEnvelope(index uint64) []byte {
	kv := NewKV()
	kv.Apply(Entry{Instance: 1, ID: types.MsgID{Sender: 0, Seq: 1}, Cmd: EncodePut([]byte("k"), []byte("v"))})
	var state bytes.Buffer
	if err := kv.Snapshot(&state); err != nil {
		panic(err)
	}
	dm := dedup.NewMap(3)
	dm.Mark(types.MsgID{Sender: 0, Seq: 1})
	env := wire.SnapshotEnvelope{Index: index, Dedup: dm.MarshalBytes(), State: state.Bytes(), Views: []member.View{
		{Epoch: 0, Activation: 0, Members: []types.ProcessID{0, 1, 2}},
		{Epoch: 1, Activation: 5, Members: []types.ProcessID{0, 1, 2, 3}},
	}}
	w := wire.NewWriter(env.WireSize())
	env.Marshal(w)
	return w.Bytes()
}

// v1File relabels a snapshot file as format version 1, whose envelopes
// carried no views.
func v1File(file []byte) []byte {
	v1 := append([]byte(nil), file...)
	v1[len(snapMagic)+3] = 1
	return v1
}

// FuzzSnapshotOpen fuzzes the snapshot file codec: arbitrary bytes are
// written as the only snapshot file of a store directory, then opened.
// Open must never panic or error on corruption (a bad file is skipped,
// like a torn tail), and anything it accepts must decode to a usable
// envelope whose KV state restores cleanly and round-trips.
func FuzzSnapshotOpen(f *testing.F) {
	valid := encodeSnapFile(7, fuzzEnvelope(7))
	f.Add(valid)
	f.Add(valid[:len(valid)-3]) // torn tail
	corrupt := append([]byte(nil), valid...)
	corrupt[snapHeaderBytes+2] ^= 0xff // flip a byte inside the body
	f.Add(corrupt)
	badmagic := append([]byte(nil), valid...)
	badmagic[0] = 'X'
	f.Add(badmagic)
	f.Add(v1File(valid))
	f.Add([]byte{})
	f.Add([]byte("MODABSNP"))

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "0000000000000007.snap"), data, 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := OpenFileStore(dir)
		if err != nil {
			t.Fatalf("OpenFileStore must skip bad files, got: %v", err)
		}
		idx, ok := s.Latest()
		if !ok {
			return // rejected: corruption detected
		}
		// Accepted: the envelope must decode, restore and round-trip.
		env, ok := s.LatestEnvelope()
		if !ok {
			t.Fatalf("Latest()=%d but LatestEnvelope failed", idx)
		}
		if env.Index != idx {
			t.Fatalf("envelope index %d != selected index %d", env.Index, idx)
		}
		if _, err := dedup.UnmarshalMap(env.Dedup); err != nil {
			return // dedup corruption is caught at install time, not open
		}
		kv := NewKV()
		if err := kv.Restore(bytes.NewReader(env.State)); err != nil {
			return // state corruption is caught at restore time
		}
		// A decodable state must reach a canonical fixpoint: snapshotting
		// the restored state and restoring that again is stable byte-wise
		// (the original file may legally be non-canonical — e.g. unsorted —
		// but one restore/snapshot cycle canonicalizes it).
		var again bytes.Buffer
		if err := kv.Snapshot(&again); err != nil {
			t.Fatalf("re-snapshot of restored state: %v", err)
		}
		kv2 := NewKV()
		if err := kv2.Restore(bytes.NewReader(again.Bytes())); err != nil {
			t.Fatalf("canonical snapshot failed to restore: %v", err)
		}
		var third bytes.Buffer
		if err := kv2.Snapshot(&third); err != nil {
			t.Fatalf("re-snapshot: %v", err)
		}
		if !bytes.Equal(again.Bytes(), third.Bytes()) {
			t.Fatalf("canonical serialization is not a fixpoint")
		}
		// Chunked reads must reassemble exactly the stored encoding.
		var assembled []byte
		for off := 0; ; {
			chunk, total, ok := s.ReadAt(idx, off, 5)
			if !ok {
				t.Fatalf("ReadAt(%d, %d) failed", idx, off)
			}
			assembled = append(assembled, chunk...)
			off += len(chunk)
			if off >= total {
				break
			}
		}
		w := wire.NewWriter(env.WireSize())
		env.Marshal(w)
		if !bytes.Equal(assembled, w.Bytes()) {
			t.Fatalf("chunked reads did not reassemble the envelope")
		}
	})
}

// FuzzKVApply checks KV against a map[string]string model. The script is
// read three bytes per command — op, key, value length — over a four-key
// space, with value lengths 0–7 so both the in-place overwrite and the
// reallocating write run. A CAS expects the model's current value when
// the length byte's bit 3 is set, so it both fails and succeeds. Every
// command buffer is clobbered after Apply: KV must not retain it.
func FuzzKVApply(f *testing.F) {
	f.Add([]byte{0, 0, 3, 0, 0, 3, 3, 0, 8, 2, 0, 4, 1, 0, 0, 3, 0, 0, 1, 0, 0})
	f.Add([]byte{0, 1, 5, 0, 1, 2, 2, 1, 13, 3, 1, 0, 2, 2, 3})
	f.Fuzz(func(t *testing.T, script []byte) {
		kv, model := NewKV(), map[string]string{}
		for i := 0; i+2 < len(script); i += 3 {
			op, key := script[i]%4, []byte{'a' + script[i+1]%4}
			val := bytes.Repeat([]byte{byte(i)}, int(script[i+2]%8))
			cur, had := model[string(key)]
			var cmd, want []byte
			switch op {
			case 0:
				cmd, want = EncodePut(key, val), []byte{StatusOK}
				model[string(key)] = string(val)
			case 1:
				cmd, want = EncodeDelete(key), []byte{StatusMissing}
				if had {
					want[0] = StatusOK
					delete(model, string(key))
				}
			case 2:
				old := []byte("x")
				if script[i+2]&8 != 0 {
					old = []byte(cur)
				}
				cmd, want = EncodeCAS(key, old, val), []byte{StatusCASFailed}
				if cur == string(old) {
					want[0] = StatusOK
					model[string(key)] = string(val)
				}
			case 3:
				cmd, want = EncodeGet(key), []byte{StatusMissing}
				if had {
					want = append([]byte{StatusOK}, cur...)
				}
			}
			got := kv.Apply(Entry{Instance: uint64(i + 1), ID: types.MsgID{Sender: 0, Seq: uint64(i + 1)}, Cmd: cmd})
			if !bytes.Equal(got, want) {
				t.Fatalf("command %d (op %d key %s): result %v, want %v", i/3, op, key, got, want)
			}
			for j := range cmd {
				cmd[j] = 0xee
			}
		}
		if kv.Len() != len(model) {
			t.Fatalf("KV holds %d keys, model %d", kv.Len(), len(model))
		}
		for k, v := range model {
			if got, ok := kv.Get([]byte(k)); !ok || string(got) != v {
				t.Fatalf("key %s = %q %v, model %q", k, got, ok, v)
			}
		}
	})
}
