package wal

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"modab/internal/dedup"
	"modab/internal/engine"
	"modab/internal/recovery"
	"modab/internal/rsm"
	"modab/internal/types"
	"modab/internal/wire"
)

// dirBytes sums the on-disk size of every segment file.
func dirBytes(t *testing.T, dir string) int64 {
	t.Helper()
	names, err := filepath.Glob(filepath.Join(dir, "*.wal"))
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, name := range names {
		st, err := os.Stat(name)
		if err != nil {
			t.Fatal(err)
		}
		total += st.Size()
	}
	return total
}

// coveredBelow builds a covered-predicate over per-sender watermarks, the
// shape the rsm applier derives from a snapshot's dedup state.
func coveredBelow(maxSeq uint64) func(m wire.AppMsg) bool {
	return func(m wire.AppMsg) bool { return m.ID.Seq <= maxSeq }
}

// fillSegments writes boot + per-instance admit/decision pairs through a
// tiny-segment log so instances spread over many segment files.
func fillSegments(t *testing.T, dir string, instances uint64) {
	t.Helper()
	l, err := Open(dir, Options{Policy: SyncNone, SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	l.PersistBoot()
	for k := uint64(1); k <= instances; k++ {
		b := wire.Batch{msg(0, k, "payload-payload-payload")}
		l.PersistAdmit(b)
		l.PersistDecision(k, b)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestTruncateBelowShrinksLogAndKeepsSuffix(t *testing.T) {
	dir := t.TempDir()
	fillSegments(t, dir, 40)
	l, err := Open(dir, Options{Policy: SyncNone, SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	before := l.Segments()
	if before < 4 {
		t.Fatalf("test needs several segments, got %d", before)
	}
	sizeBefore := dirBytes(t, dir)
	removed := l.TruncateBelow(30, coveredBelow(30))
	if removed == 0 {
		t.Fatalf("no segments removed")
	}
	if l.Segments() != before-removed {
		t.Fatalf("segment count %d after removing %d from %d", l.Segments(), removed, before)
	}
	if sizeAfter := dirBytes(t, dir); sizeAfter >= sizeBefore {
		t.Fatalf("on-disk size did not shrink: %d -> %d", sizeBefore, sizeAfter)
	}
	// The suffix above the snapshot must still replay, in order.
	var decisions []uint64
	if err := l.Replay(func(r recovery.Rec) error {
		if r.Kind == recovery.RecDecision {
			decisions = append(decisions, r.Instance)
		}
		return nil
	}); err != nil {
		t.Fatalf("Replay after truncation: %v", err)
	}
	// Decisions at or below the snapshot may survive in pinned segments
	// (the boot-marker segment never goes away); the suffix above the
	// snapshot must survive completely and contiguously.
	var suffix []uint64
	for _, k := range decisions {
		if k > 30 {
			suffix = append(suffix, k)
		}
	}
	if len(suffix) != 10 || suffix[0] != 31 || suffix[len(suffix)-1] != 40 {
		t.Fatalf("suffix above the snapshot damaged: %v", suffix)
	}
	for i := 1; i < len(suffix); i++ {
		if suffix[i] != suffix[i-1]+1 {
			t.Fatalf("suffix has a gap: %v", suffix)
		}
	}
	// Decisions above the snapshot stay randomly readable; truncated ones
	// are gone from the index.
	if _, ok := l.ReadDecision(40); !ok {
		t.Fatalf("ReadDecision(40) failed after truncation")
	}
	kept := make(map[uint64]bool, len(decisions))
	for _, k := range decisions {
		kept[k] = true
	}
	for k := uint64(1); k <= 30; k++ {
		if _, ok := l.ReadDecision(k); ok != kept[k] {
			t.Fatalf("ReadDecision(%d) = %v, replayable = %v", k, ok, kept[k])
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestTruncateThenRestartReplaysCorrectly(t *testing.T) {
	dir := t.TempDir()
	fillSegments(t, dir, 40)
	l, err := Open(dir, Options{Policy: SyncNone, SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	if removed := l.TruncateBelow(30, coveredBelow(30)); removed == 0 {
		t.Fatalf("no segments removed")
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// Restart: the truncated log must open cleanly and seed a recovered
	// state whose watermark reflects the full history when anchored at the
	// snapshot.
	l2, err := Open(dir, Options{Policy: SyncNone, SegmentBytes: 256})
	if err != nil {
		t.Fatalf("reopen after truncation: %v", err)
	}
	defer l2.Close()
	dm := dedup.NewMap(1)
	for k := uint64(1); k <= 30; k++ {
		dm.Mark(types.MsgID{Sender: 0, Seq: k})
	}
	var state bytes.Buffer
	if err := rsm.NewKV().Snapshot(&state); err != nil {
		t.Fatal(err)
	}
	snaps := rsm.NewMemStore()
	if err := snaps.Save(wire.SnapshotEnvelope{Index: 30, Dedup: dm.MarshalBytes(), State: state.Bytes()}); err != nil {
		t.Fatal(err)
	}
	cfg, _, err := recovery.Boot(recovery.Incarnation{Self: 0, N: 1, Engine: engine.DefaultConfig(1),
		Store: l2, StateMachine: rsm.NewKV(), Snapshots: snaps})
	if err != nil {
		t.Fatalf("Boot: %v", err)
	}
	st := cfg.Recovered
	if st == nil || st.NextDecide != 41 {
		t.Fatalf("recovered NextDecide = %+v, want 41", st)
	}
	if len(st.Own) != 0 {
		t.Fatalf("recovered Own = %d messages, want 0 (all ordered)", len(st.Own))
	}
	if st.NextSeq != 41 {
		t.Fatalf("recovered NextSeq = %d, want 41", st.NextSeq)
	}
}

func TestTruncateNeverTouchesOpenSegment(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{Policy: SyncNone}) // default 4 MiB: one open segment
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	l.PersistBoot()
	for k := uint64(1); k <= 10; k++ {
		b := wire.Batch{msg(0, k, "x")}
		l.PersistAdmit(b)
		l.PersistDecision(k, b)
	}
	// Everything is covered, but it all lives in the open segment.
	if removed := l.TruncateBelow(10, coveredBelow(10)); removed != 0 {
		t.Fatalf("open segment truncated (%d removed)", removed)
	}
	if l.Segments() != 1 {
		t.Fatalf("segments = %d, want 1", l.Segments())
	}
	if _, ok := l.ReadDecision(5); !ok {
		t.Fatalf("open-segment decision lost")
	}
}

func TestTruncateAtZeroKeepsBootMarker(t *testing.T) {
	dir := t.TempDir()
	fillSegments(t, dir, 8)
	l, err := Open(dir, Options{Policy: SyncNone, SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	// A snapshot at index 0 is "no snapshot": nothing may be truncated.
	if removed := l.TruncateBelow(0, coveredBelow(8)); removed != 0 {
		t.Fatalf("TruncateBelow(0) removed %d segments", removed)
	}
	boots := 0
	if err := l.Replay(func(r recovery.Rec) error {
		if r.Kind == recovery.RecBoot {
			boots++
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if boots != 1 {
		t.Fatalf("boot markers = %d, want 1", boots)
	}
	// Even a real snapshot never drops a boot marker: the segment holding
	// it is pinned regardless of coverage.
	l.TruncateBelow(8, coveredBelow(8))
	boots = 0
	if err := l.Replay(func(r recovery.Rec) error {
		if r.Kind == recovery.RecBoot {
			boots++
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if boots != 1 {
		t.Fatalf("boot marker lost after truncation (%d left)", boots)
	}
}

// Segments returns the current segment count (tests and diagnostics).
func (l *Log) Segments() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.segs)
}
