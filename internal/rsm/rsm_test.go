package rsm

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"modab/internal/dedup"
	"modab/internal/engine"
	"modab/internal/member"
	"modab/internal/trace"
	"modab/internal/types"
	"modab/internal/wire"
)

func mid(sender, seq uint64) types.MsgID {
	return types.MsgID{Sender: types.ProcessID(sender), Seq: seq}
}

func TestKVApplyOps(t *testing.T) {
	kv := NewKV()
	apply := func(seq uint64, cmd []byte) []byte {
		return kv.Apply(Entry{Instance: seq, ID: mid(0, seq), Cmd: cmd})
	}
	if st, _ := DecodeResult(apply(1, EncodePut([]byte("a"), []byte("1")))); st != StatusOK {
		t.Fatalf("put status %d", st)
	}
	st, v := DecodeResult(apply(2, EncodeGet([]byte("a"))))
	if st != StatusOK || string(v) != "1" {
		t.Fatalf("get = %d %q", st, v)
	}
	if st, _ := DecodeResult(apply(3, EncodeCAS([]byte("a"), []byte("2"), []byte("3")))); st != StatusCASFailed {
		t.Fatalf("cas with wrong old: %d", st)
	}
	if st, _ := DecodeResult(apply(4, EncodeCAS([]byte("a"), []byte("1"), []byte("3")))); st != StatusOK {
		t.Fatalf("cas with right old: %d", st)
	}
	if st, _ := DecodeResult(apply(5, EncodeCAS([]byte("b"), nil, []byte("x")))); st != StatusOK {
		t.Fatalf("cas expecting absent: %d", st)
	}
	if st, _ := DecodeResult(apply(6, EncodeDelete([]byte("a")))); st != StatusOK {
		t.Fatalf("delete: %d", st)
	}
	if st, _ := DecodeResult(apply(7, EncodeGet([]byte("a")))); st != StatusMissing {
		t.Fatalf("get after delete: %d", st)
	}
	if st, _ := DecodeResult(apply(8, EncodeDelete([]byte("a")))); st != StatusMissing {
		t.Fatalf("delete missing: %d", st)
	}
	if st, _ := DecodeResult(apply(9, []byte{99, 1, 2})); st != StatusBadCommand {
		t.Fatalf("garbage command: %d", st)
	}
	if v, ok := kv.Get([]byte("b")); !ok || string(v) != "x" {
		t.Fatalf("local get b = %q %v", v, ok)
	}
	if kv.Len() != 1 {
		t.Fatalf("len = %d", kv.Len())
	}
}

func TestKVSnapshotCanonical(t *testing.T) {
	a, b := NewKV(), NewKV()
	// Same state, different apply orders.
	a.Apply(Entry{ID: mid(0, 1), Cmd: EncodePut([]byte("x"), []byte("1"))})
	a.Apply(Entry{ID: mid(0, 2), Cmd: EncodePut([]byte("y"), []byte("2"))})
	b.Apply(Entry{ID: mid(0, 1), Cmd: EncodePut([]byte("y"), []byte("2"))})
	b.Apply(Entry{ID: mid(0, 2), Cmd: EncodePut([]byte("x"), []byte("1"))})
	var sa, sb bytes.Buffer
	if err := a.Snapshot(&sa); err != nil {
		t.Fatal(err)
	}
	if err := b.Snapshot(&sb); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(sa.Bytes(), sb.Bytes()) {
		t.Fatalf("equal state serialized differently")
	}
	c := NewKV()
	if err := c.Restore(bytes.NewReader(sa.Bytes())); err != nil {
		t.Fatal(err)
	}
	if v, ok := c.Get([]byte("y")); !ok || string(v) != "2" {
		t.Fatalf("restored get = %q %v", v, ok)
	}
}

// deliver feeds one single-message instance to an applier.
func deliver(a *Applier, k uint64, id types.MsgID, cmd []byte) {
	a.Apply(engine.Delivery{Msg: wire.AppMsg{ID: id, Body: cmd}, Instance: k})
}

func TestApplierBoundarySnapshots(t *testing.T) {
	var c trace.Counters
	store := NewMemStore()
	a := NewApplier(NewKV(), Options{N: 3, Store: store, Interval: 3, Counters: &c})
	for k := uint64(1); k <= 10; k++ {
		deliver(a, k, mid(0, k), EncodePut([]byte{byte(k)}, []byte("v")))
	}
	// Boundaries complete at k-1 when k arrives: snapshots at 3, 6, 9.
	if got := c.Snapshot().SnapshotsTaken; got != 3 {
		t.Fatalf("snapshots taken = %d, want 3", got)
	}
	if idx, ok := store.Latest(); !ok || idx != 9 {
		t.Fatalf("store latest = %d %v", idx, ok)
	}
	env, ok := store.LatestEnvelope()
	if !ok || env.Index != 9 {
		t.Fatalf("envelope index = %d %v", env.Index, ok)
	}
	// The envelope's dedup covers exactly instances <= 9.
	dm, err := dedup.UnmarshalMap(env.Dedup)
	if err != nil {
		t.Fatal(err)
	}
	if !dm.Seen(mid(0, 9)) || dm.Seen(mid(0, 10)) {
		t.Fatalf("snapshot dedup does not cut at the boundary")
	}
	if got := a.AppliedIndex(); got != 10 {
		t.Fatalf("applied index = %d, want 10", got)
	}
}

func TestApplierExactlyOnceAndResults(t *testing.T) {
	a := NewApplier(NewKV(), Options{N: 3})
	id := mid(1, 1)
	done := a.Await(id)
	deliver(a, 1, id, EncodePut([]byte("k"), []byte("v")))
	if st, _ := DecodeResult(<-done); st != StatusOK {
		t.Fatalf("awaited status %d", st)
	}
	// Duplicate delivery is a no-op (replay overlap).
	deliver(a, 1, id, EncodePut([]byte("k"), []byte("other")))
	if !a.seen.Seen(id) {
		t.Fatalf("Applied(id) = false")
	}
	// Await after the fact resolves immediately, with the first result.
	if st, _ := DecodeResult(<-a.Await(id)); st != StatusOK {
		t.Fatalf("late await status %d", st)
	}
	if v, _ := a.sm.(*KV).Get([]byte("k")); string(v) != "v" {
		t.Fatalf("duplicate delivery applied: k = %q", v)
	}
}

func TestApplierInstallAndBootstrap(t *testing.T) {
	// Build a source applier with a snapshot at 3.
	src := NewApplier(NewKV(), Options{N: 3, Store: NewMemStore(), Interval: 3})
	for k := uint64(1); k <= 4; k++ {
		deliver(src, k, mid(0, k), EncodePut([]byte{byte(k)}, []byte("v")))
	}
	env, ok := src.opts.Store.LatestEnvelope()
	if !ok || env.Index != 3 {
		t.Fatalf("source snapshot = %d %v", env.Index, ok)
	}

	// Install it into a fresh applier; a pre-registered waiter for a
	// covered message must be released.
	dstStore := NewMemStore()
	dst := NewApplier(NewKV(), Options{N: 3, Store: dstStore, Interval: 3})
	wait := dst.Await(mid(0, 2))
	if err := dst.Install(env); err != nil {
		t.Fatal(err)
	}
	<-wait
	if got := dst.AppliedIndex(); got != 3 {
		t.Fatalf("applied after install = %d", got)
	}
	if !dst.seen.Seen(mid(0, 3)) || dst.seen.Seen(mid(0, 4)) {
		t.Fatalf("install dedup wrong")
	}
	// The installed envelope was persisted locally: a restart bootstraps
	// from it.
	re := NewApplier(NewKV(), Options{N: 3, Store: dstStore, Interval: 3})
	boot, dm, err := re.Bootstrap()
	if err != nil {
		t.Fatal(err)
	}
	if boot.Index != 3 || dm == nil || !dm.Seen(mid(0, 3)) {
		t.Fatalf("bootstrap = %d %v", boot.Index, dm)
	}
	if got := re.StateDigest(); !bytes.Equal(got, src.applierStateAt3(t)) {
		t.Fatalf("bootstrapped state differs from snapshot state")
	}
	// Replaying the suffix above the snapshot converges with the source.
	deliver(re, 4, mid(0, 4), EncodePut([]byte{4}, []byte("v")))
	if !bytes.Equal(re.StateDigest(), src.StateDigest()) {
		t.Fatalf("suffix replay did not converge")
	}
}

// applierStateAt3 restores the source's snapshot-at-3 state for comparison.
func (a *Applier) applierStateAt3(t *testing.T) []byte {
	t.Helper()
	env, ok := a.opts.Store.LatestEnvelope()
	if !ok {
		t.Fatal("no envelope")
	}
	kv := NewKV()
	if err := kv.Restore(bytes.NewReader(env.State)); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := kv.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestFileStoreSaveOpenPrune(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Latest(); ok {
		t.Fatalf("empty store reports a snapshot")
	}
	for i := uint64(1); i <= 4; i++ {
		env := wire.SnapshotEnvelope{Index: i, Dedup: []byte{0, 0, 0, 0}, State: []byte{byte(i)}}
		if err := s.Save(env); err != nil {
			t.Fatal(err)
		}
	}
	if idx, ok := s.Latest(); !ok || idx != 4 {
		t.Fatalf("latest = %d %v", idx, ok)
	}
	// Stale saves never step backwards.
	if err := s.Save(wire.SnapshotEnvelope{Index: 2, State: []byte{9}}); err != nil {
		t.Fatal(err)
	}
	if idx, _ := s.Latest(); idx != 4 {
		t.Fatalf("stale save moved latest to %d", idx)
	}
	// Retention: only snapRetain files remain.
	names, _ := filepath.Glob(filepath.Join(dir, "*.snap"))
	if len(names) != snapRetain {
		t.Fatalf("retained %d files, want %d", len(names), snapRetain)
	}
	// Reopen selects the newest.
	s2, err := OpenFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if idx, ok := s2.Latest(); !ok || idx != 4 {
		t.Fatalf("reopen latest = %d %v", idx, ok)
	}
	env, ok := s2.LatestEnvelope()
	if !ok || env.Index != 4 || env.State[0] != 4 {
		t.Fatalf("reopen envelope = %+v %v", env, ok)
	}
}

func TestFileStoreSkipsCorruptNewest(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(1); i <= 2; i++ {
		env := wire.SnapshotEnvelope{Index: i, Dedup: []byte{0, 0, 0, 0}, State: []byte{byte(i)}}
		if err := s.Save(env); err != nil {
			t.Fatal(err)
		}
	}
	// Corrupt the newest file; open must fall back to the predecessor.
	name := filepath.Join(dir, "0000000000000002.snap")
	data, err := os.ReadFile(name)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xff
	if err := os.WriteFile(name, data, 0o644); err != nil {
		t.Fatal(err)
	}
	s2, err := OpenFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if idx, ok := s2.Latest(); !ok || idx != 1 {
		t.Fatalf("fallback latest = %d %v, want 1", idx, ok)
	}
}

// TestSnapshotFileV1Rejected: a version-1 file (an envelope without
// views) is rejected at open, never misread as a version-2 envelope.
func TestSnapshotFileV1Rejected(t *testing.T) {
	_, _, err := decodeSnapFile(v1File(encodeSnapFile(7, fuzzEnvelope(7))))
	if err == nil || !strings.Contains(err.Error(), "unsupported snapshot version 1") {
		t.Fatalf("v1 file: err = %v", err)
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "0000000000000007.snap"), v1File(encodeSnapFile(7, fuzzEnvelope(7))), 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := OpenFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Latest(); ok {
		t.Fatal("a v1 snapshot file was selected")
	}
}

// TestSnapshotCoversConfigOps: a snapshot at index i carries exactly the
// views decided at or below i and holds the IDs of the config ops ordered
// there in its dedup state — even when the engine reports a config op
// before the deliveries of earlier instances reach the applier.
func TestSnapshotCoversConfigOps(t *testing.T) {
	store := NewMemStore()
	a := NewApplier(NewKV(), Options{N: 3, Store: store, Interval: 1})
	boot := member.View{Members: []types.ProcessID{0, 1, 2}}
	grown := member.View{Epoch: 1, Activation: 4, Members: []types.ProcessID{0, 1, 2, 3}}
	a.ConfigOrdered(0, types.MsgID{}, boot, true)
	deliver(a, 1, mid(0, 1), EncodePut([]byte("a"), []byte("1")))
	a.ConfigOrdered(3, mid(1, 1), grown, true)
	a.ConfigOrdered(3, mid(2, 1), member.View{}, false) // a rejected op is still ordered
	deliver(a, 2, mid(0, 2), EncodePut([]byte("b"), []byte("2")))
	latest := func() (wire.SnapshotEnvelope, dedup.Map) {
		env, ok := store.LatestEnvelope()
		if !ok {
			t.Fatal("no snapshot")
		}
		dm, err := dedup.UnmarshalMap(env.Dedup)
		if err != nil {
			t.Fatal(err)
		}
		return env, dm
	}
	if env, dm := latest(); env.Index != 1 || len(env.Views) != 1 || dm.Seen(mid(1, 1)) {
		t.Fatalf("snapshot at %d: views %v, config op covered %v", env.Index, env.Views, dm.Seen(mid(1, 1)))
	}
	deliver(a, 4, mid(0, 3), EncodePut([]byte("c"), []byte("3")))
	env, dm := latest()
	if env.Index != 2 || len(env.Views) != 1 || dm.Seen(mid(1, 1)) {
		t.Fatalf("snapshot at %d: views %v, config op covered %v", env.Index, env.Views, dm.Seen(mid(1, 1)))
	}
	deliver(a, 5, mid(0, 4), EncodePut([]byte("d"), []byte("4")))
	env, dm = latest()
	if env.Index != 4 || len(env.Views) != 2 || env.Views[1].Epoch != 1 || !dm.Seen(mid(1, 1)) || !dm.Seen(mid(2, 1)) {
		t.Fatalf("snapshot at %d: views %v, config ops covered %v %v", env.Index, env.Views, dm.Seen(mid(1, 1)), dm.Seen(mid(2, 1)))
	}
	// An install hands the views on.
	b := NewApplier(NewKV(), Options{N: 3, Store: NewMemStore(), Interval: 1})
	if err := b.Install(env); err != nil {
		t.Fatal(err)
	}
	deliver(b, 5, mid(0, 4), EncodePut([]byte("d"), []byte("4")))
	deliver(b, 6, mid(0, 5), EncodePut([]byte("e"), []byte("5")))
	if env, _ := b.opts.Store.LatestEnvelope(); env.Index != 5 || len(env.Views) != 2 {
		t.Fatalf("installer's snapshot at %d carries views %v", env.Index, env.Views)
	}
}
