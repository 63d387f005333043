// Package wal implements the file-backed write-ahead log of the
// crash-recovery subsystem: a segmented append-only log of CRC-checked
// records implementing recovery.Store, so the engines persist admissions
// and consensus decisions through it (engine.Persister) and a restarted
// process replays it back into protocol state (recovery.Boot).
//
// # On-disk format
//
// A log is a directory of segment files named 00000001.wal, 00000002.wal,
// ... Appends go to the highest-numbered segment; a segment is rotated
// once it exceeds Options.SegmentBytes. Each record is
//
//	[u32 payload length][u32 CRC-32C of payload][payload]
//
// with the payload starting in a one-byte record kind (admit or decision)
// followed by the wire-encoded batch (decisions carry the instance number
// first). Integrity is per record: a torn tail — a partial or
// CRC-corrupt record at the end of the last segment, the footprint of a
// crash mid-append — is truncated away on Open; corruption anywhere else
// fails Open with ErrCorrupt.
//
// # Fsync policy
//
// SyncAlways fsyncs after every append (durable against power loss, the
// slowest), SyncInterval fsyncs on a background ticker (bounded loss
// window), SyncNone leaves flushing to the OS (durable against process
// crashes only — a completed write survives the process that made it).
// All policies sync on Close.
//
// Append errors are fail-stop: a process that cannot persist must not
// keep running as if it could, so write failures panic (the
// engine.Persister contract).
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"modab/internal/obs"
	"modab/internal/recovery"
	"modab/internal/wire"
)

// SyncPolicy selects when appends reach stable storage.
type SyncPolicy int

const (
	// SyncAlways fsyncs after every append. The default: zero loss window.
	SyncAlways SyncPolicy = iota
	// SyncInterval fsyncs on a background ticker (Options.Interval).
	SyncInterval
	// SyncNone never fsyncs explicitly before Close; the OS flushes when
	// it pleases. Survives process crashes, not power loss.
	SyncNone
)

// String implements fmt.Stringer.
func (p SyncPolicy) String() string {
	switch p {
	case SyncAlways:
		return "always"
	case SyncInterval:
		return "interval"
	case SyncNone:
		return "none"
	default:
		return fmt.Sprintf("policy(%d)", int(p))
	}
}

// Options tunes a log. The zero value is usable: SyncAlways, 4 MiB
// segments, 2 ms interval (if SyncInterval is selected).
type Options struct {
	// Policy is the fsync policy.
	Policy SyncPolicy
	// Interval is the background fsync period under SyncInterval.
	Interval time.Duration
	// SegmentBytes is the rotation threshold for segment files.
	SegmentBytes int64
	// Obs, when non-nil, records every fsync's wall-clock duration into
	// the owning process's Fsync latency histogram.
	Obs *obs.Recorder
}

func (o Options) withDefaults() Options {
	if o.Interval <= 0 {
		o.Interval = 2 * time.Millisecond
	}
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = 4 << 20
	}
	return o
}

// Errors.
var (
	// ErrCorrupt indicates a CRC mismatch before the tail of the log.
	ErrCorrupt = errors.New("wal: corrupt record")
	// ErrClosed is returned by operations on a closed log.
	ErrClosed = errors.New("wal: closed")
)

// castagnoli is the CRC-32C table (the checksum used by most storage
// systems; hardware-accelerated on amd64/arm64).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// recHeaderBytes is the fixed per-record framing: length + CRC.
const recHeaderBytes = 8

// maxRecordBytes bounds one record (matches wire.MaxChunk): fail fast on
// a corrupt length prefix instead of allocating absurd buffers.
const maxRecordBytes = 64 << 20

// recRef locates one persisted decision for random access.
type recRef struct {
	seg uint64 // segment id
	off int64  // offset of the record header in the segment
	n   uint32 // payload length
}

// Log is a segmented write-ahead log. Appends are serialized by an
// internal mutex (the engine event loop is the only writer, but the
// SyncInterval flusher runs concurrently).
type Log struct {
	dir  string
	opts Options

	mu      sync.Mutex
	cur     *os.File // append handle of the highest segment
	curID   uint64
	curSize int64
	segs    []uint64            // segment ids, ascending; last == curID
	index   map[uint64]recRef   // instance -> decision record
	readers map[uint64]*os.File // read handles, opened on demand
	dirty   bool                // unsynced appends outstanding
	closed  bool

	stop chan struct{}
	wg   sync.WaitGroup
}

var _ recovery.Store = (*Log)(nil)

// segPath returns the path of segment id.
func (l *Log) segPath(id uint64) string {
	return filepath.Join(l.dir, fmt.Sprintf("%08d.wal", id))
}

// Open opens (creating if needed) the log in dir, scanning existing
// segments, truncating a torn tail, and building the decision index.
func Open(dir string, opts Options) (*Log, error) {
	opts = opts.withDefaults()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	l := &Log{
		dir:     dir,
		opts:    opts,
		index:   make(map[uint64]recRef),
		readers: make(map[uint64]*os.File),
		stop:    make(chan struct{}),
	}
	names, err := filepath.Glob(filepath.Join(dir, "*.wal"))
	if err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	sort.Strings(names)
	for _, name := range names {
		var id uint64
		if _, err := fmt.Sscanf(filepath.Base(name), "%08d.wal", &id); err != nil || id == 0 {
			return nil, fmt.Errorf("wal: unexpected file %s in log directory", name)
		}
		l.segs = append(l.segs, id)
	}
	if len(l.segs) == 0 {
		l.segs = []uint64{1}
	}
	// Scan every segment: index decisions, and truncate the torn tail of
	// the last one.
	for i, id := range l.segs {
		last := i == len(l.segs)-1
		size, err := l.scanSegment(id, last)
		if err != nil {
			return nil, err
		}
		if last {
			l.curID = id
			l.curSize = size
		}
	}
	f, err := os.OpenFile(l.segPath(l.curID), os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	if _, err := f.Seek(l.curSize, io.SeekStart); err != nil {
		f.Close()
		return nil, fmt.Errorf("wal: %w", err)
	}
	l.cur = f
	if opts.Policy == SyncInterval {
		l.wg.Add(1)
		go l.syncLoop()
	}
	return l, nil
}

// scanSegment validates segment id record by record — framing, checksum,
// and payload structure, exactly what Replay will later require, so a log
// that opens is guaranteed to replay — adds its decisions to the index,
// and returns the byte size of the valid prefix. When tolerateTail is set
// (last segment only) a partial or corrupt final record is truncated away
// instead of failing. (A CRC-valid but structurally invalid record is
// possible: the empty payload checksums to 0, so an 8-byte zero run looks
// CRC-clean — found by FuzzSegmentScan.)
func (l *Log) scanSegment(id uint64, tolerateTail bool) (int64, error) {
	path := l.segPath(id)
	data, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return 0, nil
	}
	if err != nil {
		return 0, fmt.Errorf("wal: %w", err)
	}
	var off int64
	for int64(len(data))-off >= recHeaderBytes {
		r := wire.NewReader(data[off:])
		n := r.Uint32()
		crc := r.Uint32()
		if n > maxRecordBytes || int64(len(data))-off-recHeaderBytes < int64(n) {
			break // torn or corrupt length: treat as tail
		}
		payload := data[off+recHeaderBytes : off+recHeaderBytes+int64(n)]
		if crc32.Checksum(payload, castagnoli) != crc {
			break // corrupt record: treat as tail
		}
		rec, err := decodeRecord(payload)
		if err != nil {
			break // CRC-valid but structurally corrupt: treat as tail
		}
		if rec.Kind == recovery.RecDecision {
			l.index[rec.Instance] = recRef{seg: id, off: off, n: n}
		}
		off += recHeaderBytes + int64(n)
	}
	if off != int64(len(data)) {
		if !tolerateTail {
			return 0, fmt.Errorf("%w: segment %s at offset %d", ErrCorrupt, path, off)
		}
		if err := os.Truncate(path, off); err != nil {
			return 0, fmt.Errorf("wal: truncating torn tail: %w", err)
		}
	}
	return off, nil
}

// syncCur fsyncs the current segment, recording the wall-clock duration
// in the Fsync histogram when observability is enabled. Caller holds mu.
func (l *Log) syncCur() error {
	start := time.Now()
	err := l.cur.Sync()
	if err == nil {
		l.opts.Obs.FsyncObserved(time.Since(start))
	}
	return err
}

// syncLoop is the SyncInterval background flusher.
func (l *Log) syncLoop() {
	defer l.wg.Done()
	t := time.NewTicker(l.opts.Interval)
	defer t.Stop()
	for {
		select {
		case <-l.stop:
			return
		case <-t.C:
			l.mu.Lock()
			if l.dirty && !l.closed {
				if err := l.syncCur(); err == nil {
					l.dirty = false
				}
			}
			l.mu.Unlock()
		}
	}
}

// append writes one record, honoring the fsync policy and rotating the
// segment when it grows past the threshold. Fail-stop on write errors.
func (l *Log) append(kind recovery.RecKind, instance uint64, b wire.Batch) {
	// Assemble the payload, then frame it.
	w := wire.NewWriter(recHeaderBytes + 1 + 8 + b.WireSize())
	w.Uint32(0) // length placeholder
	w.Uint32(0) // crc placeholder
	w.Uint8(uint8(kind))
	if kind == recovery.RecDecision {
		w.Uint64(instance)
	}
	b.Marshal(w)
	buf := w.Bytes()
	payload := buf[recHeaderBytes:]
	binary.BigEndian.PutUint32(buf[0:4], uint32(len(payload)))
	binary.BigEndian.PutUint32(buf[4:8], crc32.Checksum(payload, castagnoli))

	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		panic(fmt.Sprintf("wal: append to closed log %s", l.dir))
	}
	off := l.curSize
	if _, err := l.cur.Write(buf); err != nil {
		panic(fmt.Sprintf("wal: append to %s: %v", l.segPath(l.curID), err))
	}
	l.curSize += int64(len(buf))
	l.dirty = true
	if kind == recovery.RecDecision {
		l.index[instance] = recRef{seg: l.curID, off: off, n: uint32(len(payload))}
	}
	if l.opts.Policy == SyncAlways {
		if err := l.syncCur(); err != nil {
			panic(fmt.Sprintf("wal: fsync %s: %v", l.segPath(l.curID), err))
		}
		l.dirty = false
	}
	if l.curSize >= l.opts.SegmentBytes {
		l.rotate()
	}
}

// rotate seals the current segment and starts the next one. Caller holds mu.
func (l *Log) rotate() {
	if err := l.syncCur(); err != nil {
		panic(fmt.Sprintf("wal: fsync %s: %v", l.segPath(l.curID), err))
	}
	if err := l.cur.Close(); err != nil {
		panic(fmt.Sprintf("wal: close %s: %v", l.segPath(l.curID), err))
	}
	l.dirty = false
	l.curID++
	l.segs = append(l.segs, l.curID)
	f, err := os.OpenFile(l.segPath(l.curID), os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		panic(fmt.Sprintf("wal: rotate to %s: %v", l.segPath(l.curID), err))
	}
	l.cur = f
	l.curSize = 0
}

// PersistAdmit implements engine.Persister.
func (l *Log) PersistAdmit(b wire.Batch) { l.append(recovery.RecAdmit, 0, b) }

// PersistDecision implements engine.Persister.
func (l *Log) PersistDecision(k uint64, b wire.Batch) { l.append(recovery.RecDecision, k, b) }

// PersistBoot implements recovery.Store: stamp the start of an
// incarnation (drivers call it once, right after replaying).
func (l *Log) PersistBoot() { l.append(recovery.RecBoot, 0, nil) }

// ReadDecision implements engine.Persister: random access to a persisted
// decision through the in-memory index (state-transfer service beyond the
// engines' retention horizon).
func (l *Log) ReadDecision(k uint64) (wire.Batch, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	ref, ok := l.index[k]
	if !ok || l.closed {
		return nil, false
	}
	f, err := l.reader(ref.seg)
	if err != nil {
		return nil, false
	}
	payload := make([]byte, ref.n)
	if _, err := f.ReadAt(payload, ref.off+recHeaderBytes); err != nil {
		return nil, false
	}
	r := wire.NewReader(payload)
	if kind := recovery.RecKind(r.Uint8()); kind != recovery.RecDecision {
		return nil, false
	}
	if inst := r.Uint64(); inst != k {
		return nil, false
	}
	b := wire.UnmarshalBatch(r)
	if r.Err() != nil {
		return nil, false
	}
	return b, true
}

// reader returns (caching) a read-only handle for segment id. Caller
// holds mu.
func (l *Log) reader(id uint64) (*os.File, error) {
	if f := l.readers[id]; f != nil {
		return f, nil
	}
	f, err := os.Open(l.segPath(id))
	if err != nil {
		return nil, err
	}
	l.readers[id] = f
	return f, nil
}

// Replay implements recovery.Store: stream every record in append order.
// It reads the validated on-disk state, so it is normally called once,
// right after Open.
func (l *Log) Replay(fn func(r recovery.Rec) error) error {
	l.mu.Lock()
	segs := make([]uint64, len(l.segs))
	copy(segs, l.segs)
	sizes := make(map[uint64]int64, len(segs))
	for _, id := range segs {
		if id == l.curID {
			sizes[id] = l.curSize
		} else {
			sizes[id] = -1 // whole file
		}
	}
	closed := l.closed
	l.mu.Unlock()
	if closed {
		return ErrClosed
	}
	for _, id := range segs {
		data, err := os.ReadFile(l.segPath(id))
		if errors.Is(err, os.ErrNotExist) {
			continue
		}
		if err != nil {
			return fmt.Errorf("wal: %w", err)
		}
		if lim := sizes[id]; lim >= 0 && int64(len(data)) > lim {
			data = data[:lim]
		}
		var off int64
		for int64(len(data))-off >= recHeaderBytes {
			r := wire.NewReader(data[off:])
			n := r.Uint32()
			crc := r.Uint32()
			if n > maxRecordBytes || int64(len(data))-off-recHeaderBytes < int64(n) {
				return fmt.Errorf("%w: segment %d at offset %d", ErrCorrupt, id, off)
			}
			payload := data[off+recHeaderBytes : off+recHeaderBytes+int64(n)]
			if crc32.Checksum(payload, castagnoli) != crc {
				return fmt.Errorf("%w: segment %d at offset %d", ErrCorrupt, id, off)
			}
			rec, err := decodeRecord(payload)
			if err != nil {
				return err
			}
			if err := fn(rec); err != nil {
				return err
			}
			off += recHeaderBytes + int64(n)
		}
		if off != int64(len(data)) {
			return fmt.Errorf("%w: segment %d trailing %d bytes", ErrCorrupt, id, int64(len(data))-off)
		}
	}
	return nil
}

// decodeRecord parses one validated payload into a recovery.Rec.
func decodeRecord(payload []byte) (recovery.Rec, error) {
	r := wire.NewReader(payload)
	kind := recovery.RecKind(r.Uint8())
	var rec recovery.Rec
	rec.Kind = kind
	switch kind {
	case recovery.RecAdmit, recovery.RecBoot:
	case recovery.RecDecision:
		rec.Instance = r.Uint64()
	default:
		return recovery.Rec{}, fmt.Errorf("%w: unknown record kind %d", ErrCorrupt, kind)
	}
	rec.Batch = wire.UnmarshalBatch(r)
	r.ExpectEOF()
	if err := r.Err(); err != nil {
		return recovery.Rec{}, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	return rec, nil
}

// TruncateBelow implements recovery.Store at segment granularity: a
// sealed segment is removed when every record in it is redundant given a
// durable snapshot at instance snap — decisions at or below snap, admits
// fully covered by the snapshot — and it holds no boot marker. The open
// segment always survives (the current incarnation is appending to it),
// so the log keeps at least one segment and remains openable. Returns
// the number of segment files removed.
func (l *Log) TruncateBelow(snap uint64, covered func(m wire.AppMsg) bool) int {
	if snap == 0 {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return 0
	}
	removed := 0
	kept := l.segs[:0]
	for i, id := range l.segs {
		if i == len(l.segs)-1 || !l.segmentRedundant(id, snap, covered) {
			kept = append(kept, id)
			continue
		}
		if err := os.Remove(l.segPath(id)); err != nil {
			// Removal is an optimization; a segment that will not go away
			// simply stays part of the log.
			kept = append(kept, id)
			continue
		}
		if f := l.readers[id]; f != nil {
			f.Close()
			delete(l.readers, id)
		}
		for inst, ref := range l.index {
			if ref.seg == id {
				delete(l.index, inst)
			}
		}
		removed++
	}
	l.segs = kept
	return removed
}

// segmentRedundant re-reads sealed segment id and reports whether every
// record in it is covered by a snapshot at snap. Caller holds mu.
func (l *Log) segmentRedundant(id, snap uint64, covered func(m wire.AppMsg) bool) bool {
	data, err := os.ReadFile(l.segPath(id))
	if err != nil {
		return false
	}
	var off int64
	for int64(len(data))-off >= recHeaderBytes {
		r := wire.NewReader(data[off:])
		n := r.Uint32()
		r.Uint32() // crc, validated at Open
		if n > maxRecordBytes || int64(len(data))-off-recHeaderBytes < int64(n) {
			return false
		}
		rec, err := decodeRecord(data[off+recHeaderBytes : off+recHeaderBytes+int64(n)])
		if err != nil {
			return false
		}
		switch rec.Kind {
		case recovery.RecDecision:
			if rec.Instance > snap {
				return false
			}
		case recovery.RecAdmit:
			if covered == nil || len(rec.Batch) == 0 {
				return false
			}
			for _, m := range rec.Batch {
				if !covered(m) {
					return false
				}
			}
		default:
			// Boot markers (and anything unknown) pin their segment.
			return false
		}
		off += recHeaderBytes + int64(n)
	}
	return off == int64(len(data))
}

// Sync implements recovery.Store.
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	if !l.dirty {
		return nil
	}
	if err := l.cur.Sync(); err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	l.dirty = false
	return nil
}

// Close implements recovery.Store: final sync, stop the background
// flusher, release every handle. The log directory stays replayable.
func (l *Log) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	l.closed = true
	err := l.cur.Sync()
	if cerr := l.cur.Close(); err == nil {
		err = cerr
	}
	for _, f := range l.readers {
		f.Close()
	}
	l.readers = nil
	l.mu.Unlock()
	close(l.stop)
	l.wg.Wait()
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	return nil
}
