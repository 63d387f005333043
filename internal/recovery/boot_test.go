package recovery_test

import (
	"testing"

	"modab/internal/engine"
	"modab/internal/enginetest"
	"modab/internal/member"
	"modab/internal/modular"
	"modab/internal/monolithic"
	"modab/internal/recovery"
	"modab/internal/rsm"
	"modab/internal/types"
	"modab/internal/wire"
)

// countingStore counts the reads of the log Boot and the engines make.
type countingStore struct {
	*recovery.MemStore
	replays, reads int
}

func (s *countingStore) Replay(fn func(r recovery.Rec) error) error {
	s.replays++
	return s.MemStore.Replay(fn)
}

func (s *countingStore) ReadDecision(k uint64) (wire.Batch, bool) {
	s.reads++
	return s.MemStore.ReadDecision(k)
}

// TestBootReadsLogOnce: booting a process and building its engine reads
// the log in one Replay pass — state machine, recovered state and views
// all come out of it — and never walks it by instance.
func TestBootReadsLogOnce(t *testing.T) {
	add, _ := member.NewHistory(3).Current().Stamp(member.Op{Kind: member.OpAdd, Target: 3})
	for _, stk := range []types.Stack{types.Modular, types.Monolithic} {
		store := &countingStore{MemStore: recovery.NewMemStore()}
		store.PersistBoot()
		store.PersistDecision(1, wire.Batch{{ID: types.MsgID{Sender: 1, Seq: 1}, Body: member.EncodeOp(add)}})
		for k := uint64(2); k <= 6; k++ {
			store.PersistDecision(k, wire.Batch{{ID: types.MsgID{Sender: 0, Seq: k}, Body: rsm.EncodePut([]byte{byte(k)}, []byte("v"))}})
		}
		cfg, app, err := recovery.Boot(recovery.Incarnation{Self: 0, N: 3, Engine: engine.DefaultConfig(3), Store: store,
			StateMachine: rsm.NewKV(), Snapshots: rsm.NewMemStore(), SnapshotEvery: 2})
		if err != nil {
			t.Fatal(err)
		}
		env := enginetest.New(0, 3)
		var eng engine.Engine
		if stk == types.Modular {
			eng = modular.New(env, cfg)
		} else {
			eng = monolithic.New(env, cfg)
		}
		eng.Start()
		if store.replays != 1 || store.reads != 0 {
			t.Errorf("%s: %d Replay passes and %d ReadDecision calls, want 1 and 0", stk, store.replays, store.reads)
		}
		if v := eng.(engine.ConfigSubmitter).CurrentView(); v.Epoch != 1 || !v.Contains(3) {
			t.Errorf("%s: restored view %+v, want epoch 1 with p4", stk, v)
		}
		if app.AppliedIndex() != 6 {
			t.Errorf("%s: state machine replayed to %d, want 6", stk, app.AppliedIndex())
		}
	}
}
