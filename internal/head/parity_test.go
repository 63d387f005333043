package head_test

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"
	"time"

	"modab/internal/batch"
	"modab/internal/dissem"
	"modab/internal/engine"
	"modab/internal/enginetest"
	"modab/internal/modular"
	"modab/internal/monolithic"
	"modab/internal/stack"
	"modab/internal/wire"
)

// admitLog records the write-ahead admissions of one engine.
type admitLog struct{ admits []string }

func (l *admitLog) PersistAdmit(b wire.Batch) {
	s := ""
	for _, m := range b {
		s += fmt.Sprintf("%s:%x;", m.ID, m.Body)
	}
	l.admits = append(l.admits, s)
}
func (l *admitLog) PersistDecision(uint64, wire.Batch)     {}
func (l *admitLog) ReadDecision(uint64) (wire.Batch, bool) { return nil, false }

// runScript drives one isolated engine (process 1 of 3, never the round-1
// coordinator) through a fixed submission script — seven messages of mixed
// sizes, the flush timer fired after the fifth and at the end — and returns
// its admission log and every frame it sent to process 2.
func runScript(t *testing.T, cfg engine.Config, build func(engine.Env, engine.Config) engine.Engine) ([]string, [][]byte) {
	t.Helper()
	env := enginetest.New(1, 3)
	log := &admitLog{}
	cfg.Persist = log
	e := build(env, cfg)
	e.Start()
	flush := func() {
		for _, tm := range env.Timers {
			if !tm.Canceled && tm.Delay == cfg.Batch.MaxDelay {
				e.HandleTimer(tm.ID)
				return
			}
		}
	}
	for i, size := range []int{10, 300, 1, 64, 7, 128, 32} {
		if _, err := e.Abcast(bytes.Repeat([]byte{byte(i + 1)}, size)); err != nil {
			t.Fatalf("Abcast %d: %v", i, err)
		}
		if i == 4 {
			flush()
		}
	}
	flush()
	var frames [][]byte
	for _, s := range env.SendsTo(2) {
		frames = append(frames, s.Data)
	}
	return log.admits, frames
}

// TestCrossStackHeadParity is the "share everything else" claim as an
// assertion: the same submission script on both engines yields identical
// write-ahead admission sequences and byte-identical announce and relay
// frames — the stacks differ only in a one-byte envelope around them (the
// modular stack tag, the monolithic mFrame type byte).
func TestCrossStackHeadParity(t *testing.T) {
	for _, strategy := range []dissem.Strategy{dissem.AllToAll, dissem.Ring} {
		for _, batched := range []bool{true, false} {
			t.Run(fmt.Sprintf("%s/batched=%v", strategy, batched), func(t *testing.T) {
				cfg := engine.DefaultConfig(3)
				cfg.IdleKick = 0
				cfg.Window = 16 // nothing decides here: the script must fit the window
				cfg.DigestOrdering = true
				cfg.Dissemination = strategy
				if batched {
					cfg.Batch = batch.Config{MaxMsgs: 3, MaxBytes: 512, MaxDelay: 2 * time.Millisecond}
				}
				modAdmits, modFrames := runScript(t, cfg, func(env engine.Env, c engine.Config) engine.Engine { return modular.New(env, c) })
				monoAdmits, monoFrames := runScript(t, cfg, func(env engine.Env, c engine.Config) engine.Engine { return monolithic.New(env, c) })
				if len(modAdmits) == 0 || !reflect.DeepEqual(modAdmits, monoAdmits) {
					t.Fatalf("PersistAdmit sequences differ:\nmodular    %v\nmonolithic %v", modAdmits, monoAdmits)
				}
				// Strip each envelope byte; what the head sent must remain, in
				// the same order, one announce (bare or relayed) per batch.
				var mod, mono [][]byte
				for _, f := range modFrames {
					if stack.Tag(f[0]) == stack.TagABcast {
						mod = append(mod, f[1:])
					}
				}
				for _, f := range monoFrames {
					if f[0] != monoFrames[0][0] {
						t.Fatalf("monolithic frames under envelopes %d and %d", monoFrames[0][0], f[0])
					}
					mono = append(mono, f[1:])
				}
				if !reflect.DeepEqual(mod, mono) {
					t.Fatalf("head frames differ:\nmodular    %x\nmonolithic %x", mod, mono)
				}
				announces := 0
				for _, f := range mod {
					if wire.FrameKind(f) == wire.FrameRelay {
						_, in, err := wire.UnmarshalRelayFrame(f)
						if err != nil {
							t.Fatal(err)
						}
						f = in
					}
					if wire.FrameKind(f) == wire.FrameAnnounce {
						announces++
					}
				}
				if announces != len(modAdmits) {
					t.Fatalf("%d announces to p2 for %d sealed batches", announces, len(modAdmits))
				}
			})
		}
	}
}
