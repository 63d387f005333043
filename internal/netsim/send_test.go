package netsim

import (
	"testing"
	"time"

	"modab/internal/engine"
	"modab/internal/types"
)

// scribbler sends each submission to both peers from a buffer it
// overwrites right after the sends, and records what it receives.
type scribbler struct {
	engine.Engine // nothing else is called: no timers, no faults
	env           engine.Env
	refill        bool // send the overwritten buffer once more, to p1
	got           []string
}

func (e *scribbler) Start() {}
func (e *scribbler) HandleMessage(_ types.ProcessID, data []byte) error {
	e.got = append(e.got, string(data))
	return nil
}
func (e *scribbler) Abcast(body []byte) (types.MsgID, error) {
	buf := append([]byte(nil), body...)
	e.env.Send(1, buf)
	e.env.Send(2, buf)
	copy(buf, "XXXXXX")
	if e.refill {
		// The same buffer, refilled: a new frame, however alike.
		e.env.Send(1, buf)
	}
	return types.MsgID{}, nil
}

// TestSendDoesNotRetain is the engine.Env.Send contract in the simulator:
// a buffer the engine overwrites right after Send still reaches the peers
// as it was sent.
func TestSendDoesNotRetain(t *testing.T) {
	var engs []*scribbler
	c, err := NewCluster(Options{N: 3, Stack: types.Modular, NewEngine: func(env engine.Env, _ engine.Config) engine.Engine {
		engs = append(engs, &scribbler{env: env})
		return engs[len(engs)-1]
	}})
	if err != nil {
		t.Fatal(err)
	}
	c.Abcast(0, 0, []byte("first"), nil)
	c.Abcast(0, time.Millisecond, []byte("second"), nil)
	c.RunIdle(time.Second)
	for _, e := range engs[1:] {
		if len(e.got) != 2 || e.got[0] != "first" || e.got[1] != "second" {
			t.Fatalf("p%d received %q, want [first second]", e.env.Self(), e.got)
		}
	}
}

// TestFanoutSharesOneCopy: the consecutive sends of one fan-out share one
// copy of the frame, a refilled buffer gets its own, and the counters still
// charge every send.
func TestFanoutSharesOneCopy(t *testing.T) {
	var engs []*scribbler
	c, err := NewCluster(Options{N: 3, Stack: types.Modular, NewEngine: func(env engine.Env, _ engine.Config) engine.Engine {
		engs = append(engs, &scribbler{env: env, refill: true})
		return engs[len(engs)-1]
	}})
	if err != nil {
		t.Fatal(err)
	}
	c.Abcast(0, 0, []byte("frame!"), nil)
	c.RunIdle(time.Second)
	if got := engs[1].got; len(got) != 2 || got[0] != "frame!" || got[1] != "XXXXXX" {
		t.Fatalf("p1 received %q, want [frame! XXXXXX]", got)
	}
	if got := engs[2].got; len(got) != 1 || got[0] != "frame!" {
		t.Fatalf("p2 received %q, want [frame!]", got)
	}
	if got := len(c.slab); got != 2*len("frame!") {
		t.Fatalf("slab holds %d bytes, want %d: one copy of each distinct frame", got, 2*len("frame!"))
	}
	cnt := &c.procs[0].counters
	if msgs, b := cnt.MsgsSent.Load(), cnt.BytesSent.Load(); msgs != 3 || b != 3*int64(len("frame!")) {
		t.Fatalf("counters charged %d sends, %d bytes; want 3, %d", msgs, b, 3*len("frame!"))
	}
}
