package rsm

import (
	"bytes"
	"fmt"
	"io"
	"sort"
	"sync"

	"modab/internal/wire"
)

// KV command opcodes (first byte of a command).
const (
	// OpPut sets a key to a value.
	OpPut byte = 1
	// OpDelete removes a key.
	OpDelete byte = 2
	// OpCAS sets key to new iff its current value equals old (a missing
	// key matches an empty old).
	OpCAS byte = 3
	// OpGet reads a key through the ordering layer (a linearizable read:
	// the value as of this command's position in the total order).
	OpGet byte = 4
)

// KV result status codes (first byte of an Apply result).
const (
	// StatusOK means the operation succeeded; gets carry the value.
	StatusOK byte = 0
	// StatusMissing means the key did not exist (gets and deletes).
	StatusMissing byte = 1
	// StatusCASFailed means the compare-and-swap expectation did not hold.
	StatusCASFailed byte = 2
	// StatusBadCommand means the command bytes did not decode; every
	// replica rejects it identically.
	StatusBadCommand byte = 3
)

// encode builds one command: the opcode, then each field length-prefixed.
func encode(op byte, fields ...[]byte) []byte {
	size := 1
	for _, f := range fields {
		size += 4 + len(f)
	}
	w := wire.NewWriter(size)
	w.Uint8(op)
	for _, f := range fields {
		w.Bytes32(f)
	}
	return w.Bytes()
}

// EncodePut builds a put command.
func EncodePut(key, value []byte) []byte { return encode(OpPut, key, value) }

// EncodeDelete builds a delete command.
func EncodeDelete(key []byte) []byte { return encode(OpDelete, key) }

// EncodeCAS builds a compare-and-swap command (old empty = expect the key
// to be absent).
func EncodeCAS(key, old, new []byte) []byte { return encode(OpCAS, key, old, new) }

// EncodeGet builds an ordered (linearizable) get command.
func EncodeGet(key []byte) []byte { return encode(OpGet, key) }

// Status-only results are shared by every command that returns them:
// results are read-only (see Applier.Await).
var (
	resultOK        = []byte{StatusOK}
	resultMissing   = []byte{StatusMissing}
	resultCASFailed = []byte{StatusCASFailed}
	resultBad       = []byte{StatusBadCommand}
)

// DecodeResult splits an Apply result into its status and value bytes.
func DecodeResult(res []byte) (status byte, value []byte) {
	if len(res) == 0 {
		return StatusBadCommand, nil
	}
	return res[0], res[1:]
}

// KV is the built-in replicated key/value state machine: put, delete,
// compare-and-swap and ordered get, with a canonical sorted-key snapshot
// serialization. All state transitions happen through Apply; Get reads
// the local replica directly (serve stale-tolerant reads, or wait on the
// submitting write's Await for read-your-writes).
//
// Apply decodes without copying and overwrites an existing key's value
// in place when its size is unchanged, so a steady-state overwrite costs
// one map probe and no allocation. Values are therefore owned by the map
// and never handed out: Get, ordered gets and Snapshot copy them.
type KV struct {
	mu sync.RWMutex
	m  map[string][]byte
}

var _ StateMachine = (*KV)(nil)

// NewKV returns an empty key/value state machine.
func NewKV() *KV { return &KV{m: make(map[string][]byte)} }

// Apply implements StateMachine.
func (kv *KV) Apply(e Entry) []byte {
	r := wire.NewReader(e.Cmd)
	op := r.Uint8()
	key := r.View32()
	var old, val []byte
	switch op {
	case OpPut:
		val = r.View32()
	case OpCAS:
		old, val = r.View32(), r.View32()
	}
	r.ExpectEOF()
	if r.Err() != nil {
		return resultBad
	}
	kv.mu.Lock()
	defer kv.mu.Unlock()
	cur, ok := kv.m[string(key)]
	switch op {
	case OpPut: // written below
	case OpDelete:
		if !ok {
			return resultMissing
		}
		delete(kv.m, string(key))
		return resultOK
	case OpCAS:
		if !bytes.Equal(cur, old) { // a missing key matches an empty old
			return resultCASFailed
		}
	case OpGet:
		if !ok {
			return resultMissing
		}
		return append(append(make([]byte, 0, 1+len(cur)), StatusOK), cur...)
	default:
		return resultBad
	}
	if ok && len(cur) == len(val) {
		copy(cur, val)
	} else {
		kv.m[string(key)] = bytes.Clone(val)
	}
	return resultOK
}

// Get reads one key from the local replica (no ordering).
func (kv *KV) Get(key []byte) ([]byte, bool) {
	kv.mu.RLock()
	defer kv.mu.RUnlock()
	v, ok := kv.m[string(key)]
	if !ok {
		return nil, false
	}
	return bytes.Clone(v), true
}

// Len returns the number of keys.
func (kv *KV) Len() int {
	kv.mu.RLock()
	defer kv.mu.RUnlock()
	return len(kv.m)
}

// Snapshot implements StateMachine: entry count, then key/value pairs in
// ascending key order (canonical — equal state serializes identically on
// every replica).
func (kv *KV) Snapshot(out io.Writer) error {
	kv.mu.RLock()
	keys := make([]string, 0, len(kv.m))
	size := 4
	for k, v := range kv.m {
		keys = append(keys, k)
		size += 8 + len(k) + len(v)
	}
	sort.Strings(keys)
	w := wire.GetWriter(size)
	defer wire.PutWriter(w)
	w.Uint32(uint32(len(keys)))
	for _, k := range keys {
		w.Bytes32([]byte(k))
		w.Bytes32(kv.m[k])
	}
	kv.mu.RUnlock()
	_, err := out.Write(w.Bytes())
	return err
}

// Restore implements StateMachine.
func (kv *KV) Restore(in io.Reader) error {
	data, err := io.ReadAll(in)
	if err != nil {
		return err
	}
	r := wire.NewReader(data)
	n := r.Uint32()
	if r.Err() == nil && uint64(n) > uint64(wire.MaxChunk/8) {
		return fmt.Errorf("rsm: kv snapshot with %d entries", n)
	}
	m := make(map[string][]byte, n)
	for i := uint32(0); i < n && r.Err() == nil; i++ {
		k := r.View32()
		m[string(k)] = r.Bytes32()
	}
	r.ExpectEOF()
	if err := r.Err(); err != nil {
		return fmt.Errorf("rsm: kv snapshot decode: %w", err)
	}
	kv.mu.Lock()
	kv.m = m
	kv.mu.Unlock()
	return nil
}
