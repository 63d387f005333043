package rsm

import (
	"bytes"
	"testing"
)

// TestApplyAllocs is the allocation ratchet of the apply path: a
// steady-state overwrite put through the applier decodes without copying,
// overwrites the value in place and records a shared status result, so it
// allocates nothing; an ordered get allocates only its result.
func TestApplyAllocs(t *testing.T) {
	a := NewApplier(NewKV(), Options{N: 3})
	seq := uint64(0)
	apply := func(cmd []byte) {
		seq++
		deliver(a, seq, mid(1, seq), cmd)
	}
	put := EncodePut([]byte("key-0001"), []byte("value-0001"))
	get := EncodeGet([]byte("key-0001"))
	apply(put) // the first put allocates the key, the value and the origin's window
	if n := testing.AllocsPerRun(200, func() { apply(put) }); n != 0 {
		t.Errorf("steady-state overwrite put allocates %.1f times per apply, want 0", n)
	}
	if n := testing.AllocsPerRun(200, func() { apply(get) }); n != 1 {
		t.Errorf("ordered get allocates %.1f times per apply, want 1 (its result)", n)
	}
}

// awaitNow returns the result Await hands out for an applied message.
func awaitNow(t *testing.T, a *Applier, sender, seq uint64) []byte {
	t.Helper()
	select {
	case res := <-a.Await(mid(sender, seq)):
		return res
	default:
		t.Fatalf("Await(p%d#%d) did not resolve immediately", sender, seq)
		return nil
	}
}

// TestResultWindow pins the per-origin result bound: a result survives
// fewer than resultHistory later applies of its origin and is evicted by
// the resultHistory-th, other origins never evict it, a joiner's ID past
// the boot group works, and neither a replayed duplicate nor an older
// sequence number applied late clobbers a slot.
func TestResultWindow(t *testing.T) {
	a := NewApplier(NewKV(), Options{N: 3})
	k := uint64(0)
	apply := func(sender, seq uint64, cmd []byte) {
		k++
		deliver(a, k, mid(sender, seq), cmd)
	}
	apply(0, 1, EncodePut([]byte("k"), []byte("v1")))
	apply(1, 1, EncodeGet([]byte("k")))
	want := []byte{StatusOK, 'v', '1'}

	// Other origins' traffic, a joiner (ID >= N) included, never evicts it.
	for seq := uint64(1); seq <= 2*resultHistory; seq++ {
		apply(2, seq, EncodePut([]byte("k"), []byte("v2")))
	}
	apply(7, 1, EncodeGet([]byte("k")))
	if got := awaitNow(t, a, 7, 1); !bytes.Equal(got, []byte{StatusOK, 'v', '2'}) {
		t.Fatalf("joiner's get result = %q", got)
	}
	// A replayed duplicate is not re-applied and leaves the slot alone.
	apply(1, 1, EncodePut([]byte("k"), []byte("v3")))
	if got := awaitNow(t, a, 1, 1); !bytes.Equal(got, want) {
		t.Fatalf("result after other origins' traffic and a replay = %q, want %q", got, want)
	}

	// resultHistory-1 later applies of the same origin keep it ...
	for seq := uint64(2); seq <= resultHistory; seq++ {
		apply(1, seq, EncodePut([]byte("k"), []byte("v4")))
	}
	if got := awaitNow(t, a, 1, 1); !bytes.Equal(got, want) {
		t.Fatalf("result after %d later applies = %q, want %q", resultHistory-1, got, want)
	}
	// ... and the next one evicts it: still applied, nil result.
	apply(1, resultHistory+1, EncodeGet([]byte("k")))
	if got := awaitNow(t, a, 1, 1); got != nil || !a.seen.Seen(mid(1, 1)) {
		t.Fatalf("evicted result = %q applied=%v, want nil and applied", got, a.seen.Seen(mid(1, 1)))
	}
	if got := awaitNow(t, a, 1, resultHistory+1); !bytes.Equal(got, []byte{StatusOK, 'v', '4'}) {
		t.Fatalf("newest result = %q", got)
	}

	// An older sequence number of the same slot applied late (out of
	// order within its origin) does not evict the newer result.
	b := NewApplier(NewKV(), Options{N: 3})
	deliver(b, 1, mid(1, resultHistory+5), EncodeGet([]byte("k")))
	deliver(b, 2, mid(1, 5), EncodePut([]byte("k"), []byte("v")))
	if got := awaitNow(t, b, 1, resultHistory+5); !bytes.Equal(got, []byte{StatusMissing}) {
		t.Fatalf("newer result after a late older apply = %q", got)
	}
	if got := awaitNow(t, b, 1, 5); got != nil {
		t.Fatalf("late older apply took the slot: %q", got)
	}
}

// TestKVDoesNotAlias pins the ownership rules of the copy-free apply path:
// the command buffer is not retained, and values handed out by Get and
// ordered gets are copies an in-place overwrite cannot reach.
func TestKVDoesNotAlias(t *testing.T) {
	kv := NewKV()
	digest := func() []byte {
		var buf bytes.Buffer
		if err := kv.Snapshot(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	// Both write branches: a new key (fresh copy) and a same-size
	// overwrite (in place).
	for i, val := range []string{"aaaa", "bbbb"} {
		cmd := EncodePut([]byte("k"), []byte(val))
		kv.Apply(Entry{Instance: uint64(i + 1), ID: mid(0, uint64(i+1)), Cmd: cmd})
		before := digest()
		for j := range cmd {
			cmd[j] = 0xff
		}
		if got := digest(); !bytes.Equal(got, before) {
			t.Fatalf("mutating the applied command changed the state")
		}
		if v, _ := kv.Get([]byte("k")); string(v) != val {
			t.Fatalf("after mutating the command: k = %q, want %q", v, val)
		}
	}

	local, _ := kv.Get([]byte("k"))
	ordered := kv.Apply(Entry{Instance: 3, ID: mid(0, 3), Cmd: EncodeGet([]byte("k"))})
	kv.Apply(Entry{Instance: 4, ID: mid(0, 4), Cmd: EncodePut([]byte("k"), []byte("cccc"))})
	if string(local) != "bbbb" {
		t.Fatalf("Get result changed by a later overwrite: %q", local)
	}
	if st, v := DecodeResult(ordered); st != StatusOK || string(v) != "bbbb" {
		t.Fatalf("ordered get result changed by a later overwrite: %d %q", st, v)
	}
	if v, _ := kv.Get([]byte("k")); string(v) != "cccc" {
		t.Fatalf("overwrite lost: %q", v)
	}
}
