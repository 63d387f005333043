package recovery

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"modab/internal/engine"
	"modab/internal/member"
	"modab/internal/rsm"
	"modab/internal/trace"
	"modab/internal/types"
	"modab/internal/wire"
)

func msg(sender types.ProcessID, seq uint64, body string) wire.AppMsg {
	return wire.AppMsg{ID: types.MsgID{Sender: sender, Seq: seq}, Body: []byte(body)}
}

// replayed boots process self of an n-group over s without a state
// machine and returns the recovered engine state.
func replayed(s Store, n int, self types.ProcessID) (*engine.RecoveredState, error) {
	cfg, _, err := Boot(Incarnation{Self: self, N: n, Engine: engine.DefaultConfig(n), Store: s})
	return cfg.Recovered, err
}

func TestReplayStateEmpty(t *testing.T) {
	st, err := replayed(NewMemStore(), 3, 0)
	if err != nil {
		t.Fatalf("Boot: %v", err)
	}
	if st != nil {
		t.Fatalf("empty store replayed to %+v, want nil", st)
	}
}

func TestReplayStateBootOnly(t *testing.T) {
	s := NewMemStore()
	s.PersistBoot()
	st, err := replayed(s, 3, 0)
	if err != nil {
		t.Fatalf("Boot: %v", err)
	}
	if st == nil {
		t.Fatal("boot-marked store replayed to nil — a crashed-at-boot process would rejoin as fresh")
	}
	if st.NextDecide != 1 || st.NextSeq != 1 || len(st.Own) != 0 || st.Boots != 1 {
		t.Fatalf("boot-only state = %+v", st)
	}
}

func TestReplayStateReconstruction(t *testing.T) {
	s := NewMemStore()
	s.PersistBoot()
	// Local process 1 admits seqs 1..3; instances 1 and 2 decide seqs 1-2
	// (plus peer traffic); seq 3 stays unordered.
	s.PersistAdmit(wire.Batch{msg(1, 1, "a"), msg(1, 2, "b")})
	s.PersistDecision(1, wire.Batch{msg(0, 1, "x"), msg(1, 1, "a")})
	s.PersistAdmit(wire.Batch{msg(1, 3, "c")})
	s.PersistDecision(2, wire.Batch{msg(1, 2, "b"), msg(2, 1, "y")})

	st, err := replayed(s, 3, 1)
	if err != nil {
		t.Fatalf("Boot: %v", err)
	}
	if st.NextDecide != 3 {
		t.Errorf("NextDecide = %d, want 3", st.NextDecide)
	}
	if st.NextSeq != 4 {
		t.Errorf("NextSeq = %d, want 4 (resume above every logged own seq)", st.NextSeq)
	}
	if st.ReplayedMsgs != 4 {
		t.Errorf("ReplayedMsgs = %d, want 4", st.ReplayedMsgs)
	}
	if len(st.Own) != 1 || st.Own[0].ID.Seq != 3 || string(st.Own[0].Body) != "c" {
		t.Errorf("Own = %v, want just p2#3", st.Own)
	}
	for _, id := range []types.MsgID{{Sender: 0, Seq: 1}, {Sender: 1, Seq: 1}, {Sender: 1, Seq: 2}, {Sender: 2, Seq: 1}} {
		if !st.Delivered.Seen(id) {
			t.Errorf("replayed delivered state misses %s", id)
		}
	}
	if st.Delivered.Seen(types.MsgID{Sender: 1, Seq: 3}) {
		t.Error("unordered own message marked delivered")
	}
}

func TestReplayStateDecisionGap(t *testing.T) {
	s := NewMemStore()
	s.PersistDecision(1, wire.Batch{msg(0, 1, "x")})
	s.PersistDecision(3, wire.Batch{msg(0, 2, "y")})
	if _, err := replayed(s, 3, 0); err == nil {
		t.Fatal("gapped decision log replayed without error")
	}
}

func TestReplayStateDuplicateDecisionTolerated(t *testing.T) {
	s := NewMemStore()
	s.PersistDecision(1, wire.Batch{msg(0, 1, "x")})
	s.PersistDecision(1, wire.Batch{msg(0, 1, "x")})
	s.PersistDecision(2, wire.Batch{msg(0, 2, "y")})
	st, err := replayed(s, 2, 0)
	if err != nil {
		t.Fatalf("Boot: %v", err)
	}
	if st.NextDecide != 3 {
		t.Fatalf("NextDecide = %d, want 3", st.NextDecide)
	}
}

func TestReplayAbortPropagates(t *testing.T) {
	s := NewMemStore()
	s.PersistBoot()
	s.PersistBoot()
	want := errors.New("stop")
	calls := 0
	err := s.Replay(func(Rec) error {
		calls++
		return want
	})
	if !errors.Is(err, want) || calls != 1 {
		t.Fatalf("Replay aborted after %d calls with %v", calls, err)
	}
}

func TestMemStoreCopiesBatches(t *testing.T) {
	s := NewMemStore()
	body := []byte("mutate-me")
	b := wire.Batch{{ID: types.MsgID{Sender: 0, Seq: 1}, Body: body}}
	s.PersistDecision(1, b)
	body[0] = 'X'
	got, ok := s.ReadDecision(1)
	if !ok || string(got[0].Body) != "mutate-me" {
		t.Fatalf("stored decision aliased the caller's buffer: %q", got[0].Body)
	}
}

func TestCatchupLifecycle(t *testing.T) {
	var c Catchup
	if c.Active() {
		t.Fatal("zero Catchup is active")
	}
	c.Begin(10*time.Millisecond, 2) // e.g. a 5-group: self + 2 responders = majority
	if !c.Active() {
		t.Fatal("Begin did not activate")
	}
	c.Observe(1, 5)
	c.Observe(1, 3) // lower horizons never regress the target
	if c.Target() != 5 {
		t.Fatalf("Target = %d, want 5", c.Target())
	}
	if _, done := c.MaybeFinish(5, 20*time.Millisecond); done {
		t.Fatal("finished while instance 5 still missing")
	}
	// Past the only reported horizon, but one responder is not a quorum:
	// the first answer could come from a peer that is itself behind.
	if _, done := c.MaybeFinish(6, 22*time.Millisecond); done {
		t.Fatal("finished off a single (possibly lagging) responder")
	}
	c.Observe(2, 4)
	dur, done := c.MaybeFinish(6, 25*time.Millisecond)
	if !done || dur != 15*time.Millisecond {
		t.Fatalf("MaybeFinish = (%v, %v), want (15ms, true)", dur, done)
	}
	if _, again := c.MaybeFinish(7, 30*time.Millisecond); again {
		t.Fatal("MaybeFinish reported completion twice")
	}
}

func TestQuorum(t *testing.T) {
	for n, want := range map[int]int{1: 0, 2: 1, 3: 1, 5: 2, 7: 3} {
		if got := Quorum(n); got != want {
			t.Errorf("Quorum(%d) = %d, want %d", n, got, want)
		}
	}
}

func TestChunkEnd(t *testing.T) {
	if end := ChunkEnd(5, 4); end != 0 {
		t.Fatalf("ChunkEnd past horizon = %d, want 0", end)
	}
	if end := ChunkEnd(1, 10); end != 10 {
		t.Fatalf("ChunkEnd small = %d, want 10", end)
	}
	if end := ChunkEnd(1, 1000); end != ChunkInstances {
		t.Fatalf("ChunkEnd capped = %d, want %d", end, ChunkInstances)
	}
}

// TestBoot covers the one boot path of every driver: a first boot, a
// plain full-log replay (with and without a state machine), the
// snapshot-anchored restart that replays only the suffix, and a joiner's
// first boot.
func TestBoot(t *testing.T) {
	put := func(sender types.ProcessID, seq uint64, key string) wire.AppMsg {
		return wire.AppMsg{ID: types.MsgID{Sender: sender, Seq: seq}, Body: rsm.EncodePut([]byte(key), []byte{byte(seq)})}
	}
	decisions := []wire.Batch{
		{put(0, 1, "a"), put(1, 1, "b")},
		{put(1, 2, "c")},
		{put(2, 1, "d"), put(0, 2, "a")},
	}
	// run is the previous incarnation, booted the same way: it logs and
	// applies every decision, snapshotting every snapEvery instances
	// (0 = never) with log truncation hooked up by Boot.
	run := func(n int, snapEvery uint64) (*MemStore, *rsm.MemStore, *rsm.Applier, *trace.Counters) {
		store, snaps, c := NewMemStore(), rsm.NewMemStore(), new(trace.Counters)
		_, app, err := Boot(Incarnation{Self: 0, N: 3, Engine: engine.DefaultConfig(3), Store: store,
			StateMachine: rsm.NewKV(), Snapshots: snaps, SnapshotEvery: snapEvery, Counters: c})
		if err != nil {
			t.Fatal(err)
		}
		for i, b := range decisions[:n] {
			store.PersistDecision(uint64(i+1), b)
			ordered := append(wire.Batch(nil), b...)
			ordered.SortDeterministic()
			for _, m := range ordered {
				app.Apply(engine.Delivery{Msg: m, Instance: uint64(i + 1)})
			}
		}
		return store, snaps, app, c
	}
	boot := func(store Store, sm rsm.StateMachine, snaps rsm.Store) (*engine.RecoveredState, *rsm.Applier) {
		cfg, app, err := Boot(Incarnation{Self: 0, N: 3, Engine: engine.DefaultConfig(3), Store: store,
			StateMachine: sm, Snapshots: snaps})
		if err != nil {
			t.Fatal(err)
		}
		return cfg.Recovered, app
	}
	boots := func(s *MemStore) (n int) {
		_ = s.Replay(func(r Rec) error {
			if r.Kind == RecBoot {
				n++
			}
			return nil
		})
		return n
	}

	t.Run("empty log", func(t *testing.T) {
		store := NewMemStore()
		st, app := boot(store, rsm.NewKV(), rsm.NewMemStore())
		if st != nil {
			t.Fatalf("Boot = %+v; want a nil state for a first boot", st)
		}
		if boots(store) != 1 || app.AppliedIndex() != 0 {
			t.Fatalf("first boot: %d boot markers, applied index %d", boots(store), app.AppliedIndex())
		}
	})
	t.Run("no snapshot", func(t *testing.T) {
		store, snaps, prev, _ := run(3, 0)
		for _, sm := range []rsm.StateMachine{nil, rsm.NewKV()} {
			st, app := boot(store, sm, snaps)
			if st.NextDecide != 4 || st.ReplayedMsgs != 5 || st.NextSeq != 3 {
				t.Fatalf("full replay state: %+v", st)
			}
			if app != nil && !bytes.Equal(app.StateDigest(), prev.StateDigest()) {
				t.Fatal("replayed state machine differs from the previous incarnation's")
			}
		}
		if boots(store) != 3 {
			t.Fatalf("%d boot markers after two restarts, want 3", boots(store))
		}
	})
	t.Run("snapshot and suffix", func(t *testing.T) {
		// The snapshot lands at instance 2 (taken when instance 3 opens)
		// and truncates the log below it: only instance 3 is replayed.
		store, snaps, prev, c := run(3, 2)
		if snap, _ := snaps.Latest(); snap != 2 || c.WalTruncatedSegments.Load() == 0 {
			t.Fatalf("previous incarnation: snapshot at %d, %d truncations", snap, c.WalTruncatedSegments.Load())
		}
		st, app := boot(store, rsm.NewKV(), snaps)
		if st.NextDecide != 4 || st.ReplayedMsgs != 2 || st.NextSeq != 3 {
			t.Fatalf("suffix replay state: %+v", st)
		}
		if !st.Delivered.Seen(types.MsgID{Sender: 1, Seq: 2}) {
			t.Fatal("delivered state lost what the snapshot covers")
		}
		if app.AppliedIndex() != 3 || !bytes.Equal(app.StateDigest(), prev.StateDigest()) {
			t.Fatalf("restored state machine: applied %d, digest mismatch %v", app.AppliedIndex(),
				!bytes.Equal(app.StateDigest(), prev.StateDigest()))
		}
	})
	t.Run("views from snapshot", func(t *testing.T) {
		// The op admitting p4 decides at instance 1; a snapshot at 2
		// truncates it out of the log, so only the envelope restores it.
		store, snaps := NewMemStore(), rsm.NewMemStore()
		cfg, app, err := Boot(Incarnation{Self: 0, N: 3, Engine: engine.DefaultConfig(3), Store: store,
			StateMachine: rsm.NewKV(), Snapshots: snaps, SnapshotEvery: 2})
		if err != nil {
			t.Fatal(err)
		}
		hist := member.NewHistory(3)
		add, _ := hist.Current().Stamp(member.Op{Kind: member.OpAdd, Target: 3})
		op := wire.AppMsg{ID: types.MsgID{Sender: 1, Seq: 1}, Body: member.EncodeOp(add)}
		v, _ := hist.Apply(add, 1, cfg.EffectivePipeline())
		store.PersistDecision(1, wire.Batch{op})
		cfg.Snapshots.ConfigOrdered(1, op.ID, v, true)
		for i, b := range decisions {
			k := uint64(i + 2)
			store.PersistDecision(k, b)
			for _, m := range b {
				app.Apply(engine.Delivery{Msg: m, Instance: k})
			}
		}
		if _, ok := store.ReadDecision(1); ok {
			t.Fatal("the config op survived truncation; the test needs it gone")
		}
		st, _ := boot(store, rsm.NewKV(), snaps)
		if len(st.Views) != 2 || st.Views[1].Epoch != 1 || !st.Views[1].Contains(3) {
			t.Fatalf("restored views %v, want the boot view and epoch 1 with p4", st.Views)
		}
		if !st.Delivered.Seen(op.ID) {
			t.Fatal("the snapshot's dedup state misses the config op it covers")
		}
	})
	t.Run("joiner", func(t *testing.T) {
		// Outside the boot group with an empty log: the restart-style
		// empty state, starting from the admitting view.
		v := member.View{Epoch: 1, Activation: 5, Members: []types.ProcessID{0, 1, 2, 3}}
		ecfg := engine.DefaultConfig(3)
		ecfg.InitialView = &v
		cfg, _, err := Boot(Incarnation{Self: 3, N: 3, Engine: ecfg, Store: NewMemStore()})
		if err != nil {
			t.Fatal(err)
		}
		st := cfg.Recovered
		if st == nil || st.NextDecide != 1 || st.NextSeq != 1 || len(st.Views) != 1 || st.Views[0].Epoch != 1 {
			t.Fatalf("joiner state = %+v", st)
		}
		if cfg.InitialView != &v {
			t.Fatal("joiner config lost its admitting view")
		}
	})
}
