package stack

import (
	"testing"
	"time"

	"modab/internal/engine"
	"modab/internal/enginetest"
	"modab/internal/types"
)

// recorderLayer records everything routed to it.
type recorderLayer struct {
	tag    Tag
	ctx    *Context
	events []Event
	recvs  []struct {
		from types.ProcessID
		data []byte
	}
	timers   []engine.TimerID
	suspects []types.ProcessID
	started  bool
}

var _ Layer = (*recorderLayer)(nil)

func (l *recorderLayer) Tag() Tag          { return l.tag }
func (l *recorderLayer) Init(ctx *Context) { l.ctx = ctx }
func (l *recorderLayer) Start()            { l.started = true }
func (l *recorderLayer) Event(ev Event)    { l.events = append(l.events, ev) }
func (l *recorderLayer) Timer(id engine.TimerID) {
	l.timers = append(l.timers, id)
}
func (l *recorderLayer) Suspect(p types.ProcessID, s bool) {
	if s {
		l.suspects = append(l.suspects, p)
	}
}
func (l *recorderLayer) Receive(from types.ProcessID, data []byte) error {
	cp := make([]byte, len(data))
	copy(cp, data)
	l.recvs = append(l.recvs, struct {
		from types.ProcessID
		data []byte
	}{from, cp})
	return nil
}

func newTestStack(t *testing.T) (*enginetest.Env, *Stack, *recorderLayer, *recorderLayer) {
	t.Helper()
	env := enginetest.New(0, 3)
	a := &recorderLayer{tag: TagRBcast}
	b := &recorderLayer{tag: TagConsensus}
	s := New(env, a, b)
	return env, s, a, b
}

func TestStartReachesEveryLayer(t *testing.T) {
	_, s, a, b := newTestStack(t)
	s.Start()
	if !a.started || !b.started {
		t.Fatal("Start did not reach all layers")
	}
}

func TestNetworkDemux(t *testing.T) {
	env, s, a, b := newTestStack(t)
	frame := append([]byte{byte(TagConsensus)}, 1, 2, 3)
	if err := s.Receive(2, frame); err != nil {
		t.Fatal(err)
	}
	if len(b.recvs) != 1 || len(a.recvs) != 0 {
		t.Fatalf("misrouted: a=%d b=%d", len(a.recvs), len(b.recvs))
	}
	if b.recvs[0].from != 2 || string(b.recvs[0].data) != string([]byte{1, 2, 3}) {
		t.Fatalf("frame mangled: %+v", b.recvs[0])
	}
	if env.Cnt.Dispatches.Load() != 1 {
		t.Fatalf("demux dispatch count = %d", env.Cnt.Dispatches.Load())
	}
}

func TestReceiveErrors(t *testing.T) {
	_, s, _, _ := newTestStack(t)
	if err := s.Receive(1, nil); err == nil {
		t.Fatal("empty frame accepted")
	}
	if err := s.Receive(1, []byte{99, 1}); err == nil {
		t.Fatal("unknown tag accepted")
	}
}

func TestEmitRoutesAndCounts(t *testing.T) {
	env, s, a, _ := newTestStack(t)
	s.Emit(TagRBcast, Event{Kind: EvBroadcastReq, Data: []byte("x")})
	if len(a.events) != 1 || a.events[0].Kind != EvBroadcastReq {
		t.Fatalf("event not routed: %+v", a.events)
	}
	if env.Cnt.Dispatches.Load() != 1 {
		t.Fatalf("dispatch count = %d", env.Cnt.Dispatches.Load())
	}
}

func TestEmitUnknownTagPanics(t *testing.T) {
	_, s, _, _ := newTestStack(t)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for unknown event target")
		}
	}()
	s.Emit(TagABcast, Event{Kind: EvDecide})
}

func TestDuplicateTagPanics(t *testing.T) {
	env := enginetest.New(0, 3)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for duplicate tags")
		}
	}()
	New(env, &recorderLayer{tag: TagRBcast}, &recorderLayer{tag: TagRBcast})
}

func TestNetSendFramesWithTag(t *testing.T) {
	env, _, a, _ := newTestStack(t)
	a.ctx.NetSend(1, []byte{7, 8})
	if len(env.Sends) != 1 {
		t.Fatalf("sends = %d", len(env.Sends))
	}
	if env.Sends[0].To != 1 || env.Sends[0].Data[0] != byte(TagRBcast) {
		t.Fatalf("frame = %+v", env.Sends[0])
	}
	if string(env.Sends[0].Data[1:]) != string([]byte{7, 8}) {
		t.Fatalf("payload mangled")
	}
}

func TestNetSendMembersSkipsSelf(t *testing.T) {
	env, _, a, _ := newTestStack(t)
	a.ctx.NetSendMembers([]types.ProcessID{0, 1, 2}, []byte{1})
	if len(env.Sends) != 2 {
		t.Fatalf("sends = %d, want n-1 = 2", len(env.Sends))
	}
	for _, snd := range env.Sends {
		if snd.To == env.SelfID {
			t.Fatal("sent to self")
		}
	}
}

func TestTimerNamespacing(t *testing.T) {
	env, s, a, b := newTestStack(t)
	a.ctx.SetTimer(1, time.Second)
	b.ctx.SetTimer(1, time.Second)
	if len(env.Timers) != 2 || env.Timers[0].ID == env.Timers[1].ID {
		t.Fatalf("timer IDs collide: %+v", env.Timers)
	}
	// Route both back: each layer sees its LOCAL id.
	s.HandleTimer(env.Timers[0].ID)
	s.HandleTimer(env.Timers[1].ID)
	if len(a.timers) != 1 || a.timers[0] != 1 {
		t.Fatalf("layer a timers: %v", a.timers)
	}
	if len(b.timers) != 1 || b.timers[0] != 1 {
		t.Fatalf("layer b timers: %v", b.timers)
	}
	// A stale/foreign timer ID is ignored, not crashed on.
	s.HandleTimer(1 << 40)
}

func TestSuspectFansOut(t *testing.T) {
	_, s, a, b := newTestStack(t)
	s.Suspect(2, true)
	if len(a.suspects) != 1 || len(b.suspects) != 1 {
		t.Fatalf("suspicion fan-out: a=%v b=%v", a.suspects, b.suspects)
	}
}

func TestCancelTimerNamespaced(t *testing.T) {
	env, _, a, _ := newTestStack(t)
	a.ctx.SetTimer(2, time.Second)
	a.ctx.CancelTimer(2)
	if len(env.Timers) != 2 || !env.Timers[1].Canceled {
		t.Fatalf("cancel not recorded: %+v", env.Timers)
	}
	if env.Timers[0].ID != env.Timers[1].ID {
		t.Fatal("cancel used a different namespaced ID")
	}
}

// copyEnv is an Env whose Send copies into one reused buffer, as the
// drivers do (engine.Env.Send does not retain data), without allocating.
type copyEnv struct {
	*enginetest.Env
	last []byte
}

func (e *copyEnv) Send(_ types.ProcessID, data []byte) { e.last = append(e.last[:0], data...) }

// TestNetSendAllocs is the allocation ratchet of the stack's send path:
// NetSend and NetSendMembers frame into a pooled writer, so a send
// through a copying env allocates nothing.
func TestNetSendAllocs(t *testing.T) {
	env := &copyEnv{Env: enginetest.New(0, 3)}
	l := &recorderLayer{tag: TagConsensus}
	New(env, l)
	payload, members := make([]byte, 200), []types.ProcessID{0, 1, 2}
	for name, send := range map[string]func(){
		"NetSend":        func() { l.ctx.NetSend(1, payload) },
		"NetSendMembers": func() { l.ctx.NetSendMembers(members, payload) },
	} {
		if n := testing.AllocsPerRun(200, send); n != 0 {
			t.Errorf("%s: %.0f allocations per send, want 0", name, n)
		}
	}
	if len(env.last) != 1+len(payload) || env.last[0] != byte(TagConsensus) {
		t.Fatalf("last frame %d bytes, tag %d", len(env.last), env.last[0])
	}
}
