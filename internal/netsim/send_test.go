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
