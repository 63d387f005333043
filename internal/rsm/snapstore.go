package rsm

import (
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"slices"

	"modab/internal/wire"
)

// Store is the durable home of snapshot envelopes. Implementations keep
// (at least) the newest valid envelope in its wire encoding, which is
// what the chunked snapshot state transfer serves.
type Store interface {
	// Save persists one envelope; newer indexes supersede older ones.
	Save(env wire.SnapshotEnvelope) error
	// Latest returns the index of the newest valid envelope.
	Latest() (index uint64, ok bool)
	// ReadAt returns the chunk [off, off+max) of the encoded envelope at
	// index plus its total encoded size; ok is false when that snapshot is
	// not (or no longer) available.
	ReadAt(index uint64, off, max int) (data []byte, total int, ok bool)
	// LatestEnvelope decodes and returns the newest valid envelope.
	LatestEnvelope() (env wire.SnapshotEnvelope, ok bool)
}

// Snapshot file format: a fixed header followed by the wire-encoded
// envelope, CRC-protected so a torn or corrupted file is detected and
// skipped at open (the previous snapshot then serves).
//
//	magic   [8]byte  "MODABSNP"
//	version uint32   (2; version 1 envelopes carried no views)
//	index   uint64   snapshot index (redundant with the envelope, for
//	                 selection without decoding the body)
//	length  uint32   body length in bytes
//	crc     uint32   CRC-32C (Castagnoli) of the body
//	body    []byte   wire-encoded SnapshotEnvelope
const (
	snapMagic       = "MODABSNP"
	snapVersion     = 2
	snapHeaderBytes = 8 + 4 + 8 + 4 + 4
	// snapRetain is how many snapshot files Save keeps: the newest plus
	// one predecessor, so a crash mid-rotation never leaves zero valid
	// snapshots behind.
	snapRetain = 2
)

var snapCastagnoli = crc32.MakeTable(crc32.Castagnoli)

// encodeSnapFile frames one encoded envelope body into the file format.
func encodeSnapFile(index uint64, body []byte) []byte {
	w := wire.NewWriter(snapHeaderBytes + len(body))
	w.Raw([]byte(snapMagic))
	w.Uint32(snapVersion)
	w.Uint64(index)
	w.Uint32(uint32(len(body)))
	w.Uint32(crc32.Checksum(body, snapCastagnoli))
	w.Raw(body)
	return w.Bytes()
}

// decodeSnapFile validates one snapshot file image and returns its index
// and envelope body. It never panics on arbitrary input (fuzzed).
func decodeSnapFile(data []byte) (index uint64, body []byte, err error) {
	if len(data) < snapHeaderBytes {
		return 0, nil, fmt.Errorf("rsm: snapshot file too short (%d bytes)", len(data))
	}
	if string(data[:8]) != snapMagic {
		return 0, nil, fmt.Errorf("rsm: bad snapshot magic")
	}
	r := wire.NewReader(data[8:])
	if v := r.Uint32(); v != snapVersion {
		return 0, nil, fmt.Errorf("rsm: unsupported snapshot version %d", v)
	}
	index = r.Uint64()
	n := r.Uint32()
	sum := r.Uint32()
	if err := r.Err(); err != nil {
		return 0, nil, err
	}
	rest := data[snapHeaderBytes:]
	if uint64(n) != uint64(len(rest)) {
		return 0, nil, fmt.Errorf("rsm: snapshot body length %d, have %d", n, len(rest))
	}
	if crc32.Checksum(rest, snapCastagnoli) != sum {
		return 0, nil, fmt.Errorf("rsm: snapshot CRC mismatch")
	}
	return index, rest, nil
}

// FileStore keeps snapshot files in one directory, alongside the
// write-ahead log. Writes go through a temp file and an atomic rename, so
// a crash mid-save leaves either the old set or the new set, never a
// half-written file selected at open. The newest envelope's encoding is
// cached in memory for chunked serving.
type FileStore struct {
	dir    string
	index  uint64
	body   []byte // encoded envelope of the newest valid snapshot
	loaded bool
}

var _ Store = (*FileStore)(nil)

// OpenFileStore opens (creating if needed) the snapshot directory and
// selects the newest valid snapshot file, skipping corrupted or torn
// files (a crash mid-write plus the retained predecessor makes this safe).
func OpenFileStore(dir string) (*FileStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("rsm: open snapshot dir: %w", err)
	}
	s := &FileStore{dir: dir}
	names, err := filepath.Glob(filepath.Join(dir, "*.snap"))
	if err != nil {
		return nil, err
	}
	slices.Sort(names)
	slices.Reverse(names) // newest index first
	for _, name := range names {
		data, err := os.ReadFile(name)
		if err != nil {
			continue
		}
		index, body, err := decodeSnapFile(data)
		if err != nil {
			continue // torn or corrupted: fall back to the predecessor
		}
		env, err := wire.UnmarshalSnapshotEnvelope(body)
		if err != nil || env.Index != index {
			continue // body does not decode, or disagrees with the header
		}
		s.index, s.body, s.loaded = index, body, true
		break
	}
	return s, nil
}

func (s *FileStore) path(index uint64) string {
	return filepath.Join(s.dir, fmt.Sprintf("%016x.snap", index))
}

// Save implements Store: temp file, fsync, atomic rename, then prune all
// but the newest snapRetain files.
func (s *FileStore) Save(env wire.SnapshotEnvelope) error {
	if s.loaded && env.Index <= s.index {
		return nil // stale: never step the durable snapshot backwards
	}
	w := wire.NewWriter(env.WireSize())
	env.Marshal(w)
	body := w.Bytes()
	framed := encodeSnapFile(env.Index, body)
	tmp := s.path(env.Index) + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(framed); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, s.path(env.Index)); err != nil {
		os.Remove(tmp)
		return err
	}
	s.index = env.Index
	s.body = append(s.body[:0:0], body...)
	s.loaded = true
	s.prune()
	return nil
}

// prune removes all but the newest snapRetain snapshot files.
func (s *FileStore) prune() {
	names, err := filepath.Glob(filepath.Join(s.dir, "*.snap"))
	if err != nil {
		return
	}
	slices.Sort(names)
	slices.Reverse(names)
	for i, name := range names {
		if i >= snapRetain {
			os.Remove(name)
		}
	}
}

// Latest implements Store.
func (s *FileStore) Latest() (uint64, bool) { return s.index, s.loaded }

// ReadAt implements Store, serving chunks from the in-memory cache of the
// newest envelope.
func (s *FileStore) ReadAt(index uint64, off, max int) ([]byte, int, bool) {
	if !s.loaded || index != s.index {
		return nil, 0, false
	}
	return sliceChunk(s.body, off, max)
}

// LatestEnvelope implements Store.
func (s *FileStore) LatestEnvelope() (wire.SnapshotEnvelope, bool) {
	if !s.loaded {
		return wire.SnapshotEnvelope{}, false
	}
	env, err := wire.UnmarshalSnapshotEnvelope(s.body)
	if err != nil {
		return wire.SnapshotEnvelope{}, false
	}
	return env, true
}

// sliceChunk bounds-checks one chunked read against an encoded envelope.
func sliceChunk(body []byte, off, max int) ([]byte, int, bool) {
	if off < 0 || max <= 0 || off > len(body) {
		return nil, len(body), off == len(body)
	}
	end := off + max
	if end > len(body) {
		end = len(body)
	}
	return body[off:end], len(body), true
}

// MemStore is the in-memory Store used by the deterministic simulator: it
// survives a simulated crash the way snapshot files survive a process
// crash, with none of the I/O nondeterminism.
type MemStore struct {
	index  uint64
	body   []byte
	loaded bool
}

var _ Store = (*MemStore)(nil)

// NewMemStore returns an empty in-memory snapshot store.
func NewMemStore() *MemStore { return &MemStore{} }

// Save implements Store.
func (s *MemStore) Save(env wire.SnapshotEnvelope) error {
	if s.loaded && env.Index <= s.index {
		return nil
	}
	w := wire.NewWriter(env.WireSize())
	env.Marshal(w)
	s.index = env.Index
	s.body = w.Bytes()
	s.loaded = true
	return nil
}

// Latest implements Store.
func (s *MemStore) Latest() (uint64, bool) { return s.index, s.loaded }

// ReadAt implements Store.
func (s *MemStore) ReadAt(index uint64, off, max int) ([]byte, int, bool) {
	if !s.loaded || index != s.index {
		return nil, 0, false
	}
	return sliceChunk(s.body, off, max)
}

// LatestEnvelope implements Store.
func (s *MemStore) LatestEnvelope() (wire.SnapshotEnvelope, bool) {
	if !s.loaded {
		return wire.SnapshotEnvelope{}, false
	}
	env, err := wire.UnmarshalSnapshotEnvelope(s.body)
	if err != nil {
		return wire.SnapshotEnvelope{}, false
	}
	return env, true
}
