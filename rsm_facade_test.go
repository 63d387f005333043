package modab_test

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"modab"
)

// awaitResult submits one command at p and blocks until the local
// applier has applied it, returning the apply result (read-your-writes).
func awaitResult(t *testing.T, ctx context.Context, c *modab.Cluster, p int, cmd []byte) []byte {
	t.Helper()
	id, err := c.Abcast(ctx, p, cmd)
	if err != nil {
		t.Fatalf("abcast at p%d: %v", p+1, err)
	}
	select {
	case res := <-c.Applier(p).Await(id):
		return res
	case <-time.After(20 * time.Second):
		t.Fatalf("timeout waiting for %s to apply at p%d", id, p+1)
		return nil
	}
}

// TestKVFacadeGroup drives the replicated KV end to end through the
// facade on the real-time group driver with file-backed durability:
// read-your-writes via Await, CAS semantics, snapshotting to disk, a
// crash/restart that recovers through the snapshot store, and final
// state digest equality across all replicas.
func TestKVFacadeGroup(t *testing.T) {
	dir := t.TempDir()
	cluster, err := modab.New(3, modab.Monolithic,
		modab.WithStateMachine(func() modab.StateMachine { return modab.NewKV() }, 4),
		modab.WithDurability(dir, modab.SyncNone))
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	// Read-your-writes: a put acknowledged by Await is visible to an
	// immediately following get at the same process.
	if st, _ := modab.DecodeKVResult(awaitResult(t, ctx, cluster, 0, modab.KVPut([]byte("greet"), []byte("hello")))); st != modab.KVStatusOK {
		t.Fatalf("put status = %d, want OK", st)
	}
	st, val := modab.DecodeKVResult(awaitResult(t, ctx, cluster, 0, modab.KVGet([]byte("greet"))))
	if st != modab.KVStatusOK || string(val) != "hello" {
		t.Fatalf("get after put = (%d, %q), want (OK, hello)", st, val)
	}

	// CAS: wrong expectation fails and leaves the value; right one swaps.
	if st, _ := modab.DecodeKVResult(awaitResult(t, ctx, cluster, 1, modab.KVCAS([]byte("greet"), []byte("wrong"), []byte("x")))); st != modab.KVStatusCASFailed {
		t.Fatalf("CAS with wrong old value status = %d, want CASFailed", st)
	}
	if st, _ := modab.DecodeKVResult(awaitResult(t, ctx, cluster, 1, modab.KVCAS([]byte("greet"), []byte("hello"), []byte("world")))); st != modab.KVStatusOK {
		t.Fatalf("CAS with right old value status = %d, want OK", st)
	}

	// Delete and missing-key get.
	if st, _ := modab.DecodeKVResult(awaitResult(t, ctx, cluster, 2, modab.KVDelete([]byte("greet")))); st != modab.KVStatusOK {
		t.Fatalf("delete status = %d, want OK", st)
	}
	if st, _ := modab.DecodeKVResult(awaitResult(t, ctx, cluster, 2, modab.KVGet([]byte("greet")))); st != modab.KVStatusMissing {
		t.Fatalf("get after delete status = %d, want Missing", st)
	}

	// Load enough unique keys to cross several snapshot intervals, then
	// crash p2 and keep going so its peers snapshot past its watermark.
	for i := 0; i < 20; i++ {
		awaitResult(t, ctx, cluster, i%3, modab.KVPut([]byte(fmt.Sprintf("k%02d", i)), []byte(fmt.Sprintf("v%02d", i))))
	}
	if err := cluster.Crash(1); err != nil {
		t.Fatalf("Crash: %v", err)
	}
	for i := 20; i < 40; i++ {
		awaitResult(t, ctx, cluster, 2*(i%2), modab.KVPut([]byte(fmt.Sprintf("k%02d", i)), []byte(fmt.Sprintf("v%02d", i))))
	}
	if err := cluster.Restart(1); err != nil {
		t.Fatalf("Restart: %v", err)
	}

	// One more write after the restart; once every replica has applied
	// it, total order says they all applied everything before it too.
	last, err := cluster.Abcast(ctx, 0, modab.KVPut([]byte("fin"), []byte("ish")))
	if err != nil {
		t.Fatalf("abcast: %v", err)
	}
	for p := 0; p < 3; p++ {
		select {
		case <-cluster.Applier(p).Await(last):
		case <-time.After(30 * time.Second):
			t.Fatalf("timeout waiting for final write at p%d", p+1)
		}
	}

	// Applied-state equivalence across all replicas, including the one
	// that recovered.
	want := cluster.Applier(0).StateDigest()
	if len(want) == 0 {
		t.Fatal("p1 produced an empty state digest")
	}
	for p := 1; p < 3; p++ {
		if !bytes.Equal(cluster.Applier(p).StateDigest(), want) {
			t.Errorf("p%d state digest differs from p1", p+1)
		}
	}

	snap := cluster.Counters(1)
	if snap.Recoveries != 1 {
		t.Errorf("restarted process Recoveries = %d, want 1", snap.Recoveries)
	}
	if live := cluster.Counters(0); live.SnapshotsTaken == 0 {
		t.Errorf("p1 took no snapshots: %+v", live)
	}

	// The snapshot store is real: .snap files on disk for every process.
	for p := 0; p < 3; p++ {
		matches, err := filepath.Glob(filepath.Join(dir, fmt.Sprintf("p%d", p), "snap", "*.snap"))
		if err != nil || len(matches) == 0 {
			t.Errorf("p%d has no snapshot files on disk (%v)", p+1, err)
		}
		for _, m := range matches {
			if fi, err := os.Stat(m); err != nil || fi.Size() == 0 {
				t.Errorf("snapshot file %s unreadable or empty", m)
			}
		}
	}
}

// TestKVFacadeValidation: WithStateMachine rejects a nil factory.
func TestKVFacadeValidation(t *testing.T) {
	if _, err := modab.New(3, modab.Modular, modab.WithStateMachine(nil, 4)); err == nil {
		t.Fatal("WithStateMachine(nil) succeeded")
	}
}
