package runtime

import (
	"encoding/binary"
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"

	"modab/internal/engine"
	"modab/internal/fd"
	"modab/internal/transport"
	"modab/internal/types"
)

// loopEngine reports every input it is handed on a channel, so a test can
// wait for the event loop without polling. gate, when non-nil, holds the
// first frame's HandleMessage until it is closed (held is closed then):
// the loop stalls there.
type loopEngine struct {
	noConfig
	frames     chan []byte
	fires      chan engine.TimerID
	gate, held chan struct{}
	once       sync.Once
}

func newLoopEngine() *loopEngine {
	return &loopEngine{frames: make(chan []byte, 4*inboxLimit), fires: make(chan engine.TimerID, 1)}
}

func (e *loopEngine) Start() {}
func (e *loopEngine) HandleMessage(_ types.ProcessID, data []byte) error {
	if e.gate != nil {
		e.once.Do(func() {
			close(e.held)
			<-e.gate
		})
	}
	e.frames <- data
	return nil
}
func (e *loopEngine) HandleTimer(id engine.TimerID)      { e.fires <- id }
func (e *loopEngine) Abcast([]byte) (types.MsgID, error) { return types.MsgID{Sender: 0, Seq: 1}, nil }
func (e *loopEngine) Suspect(types.ProcessID, bool)      {}
func (e *loopEngine) Pending() int                       { return 0 }

// loopNode is a running Node over eng, built as NewNode builds one but
// without an engine stack, a transport that ever starts or a running
// failure detector: frames are handed to onFrame directly.
func loopNode(t *testing.T, eng stackEngine) *Node {
	t.Helper()
	n := &Node{
		eng:     eng,
		tr:      transport.NewMemNetwork().Endpoint(0),
		inbox:   transport.NewQueue[event](inboxLimit),
		stopped: make(chan struct{}),
	}
	n.opts.Self, n.opts.N = 0, 3
	n.env = &nodeEnv{node: n, start: time.Now(), timers: make(map[engine.TimerID]*timerState)}
	n.det = fd.NewHeartbeat(0, 3, HeartbeatPeriod, SuspectTimeout, func(types.ProcessID) {})
	go n.run()
	t.Cleanup(func() { _ = n.Close() })
	return n
}

// frame is an engine frame carrying seq.
func frame(seq uint64) []byte {
	return binary.BigEndian.AppendUint64([]byte{chanEngine}, seq)
}

// TestInboxPerProducerFIFO: concurrent producers interleave, but each
// one's events reach the engine in the order it queued them.
func TestInboxPerProducerFIFO(t *testing.T) {
	eng := newLoopEngine()
	n := loopNode(t, eng)
	const producers, each = 4, 500
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p uint64) {
			defer wg.Done()
			for i := uint64(0); i < each; i++ {
				n.onFrame(1, frame(p<<32|i))
			}
		}(uint64(p))
	}
	next := make([]uint64, producers)
	for k := 0; k < producers*each; k++ {
		seq := binary.BigEndian.Uint64(<-eng.frames)
		p := seq >> 32
		if got := seq & (1<<32 - 1); got != next[p] {
			t.Fatalf("producer %d: event %d handled when %d was due", p, got, next[p])
		}
		next[p]++
	}
	wg.Wait()
}

// stalledFull returns a node whose loop is held in the engine on a first
// frame, with inboxLimit more frames queued behind it: the inbox is full.
func stalledFull(t *testing.T) (*Node, *loopEngine) {
	t.Helper()
	eng := newLoopEngine()
	eng.gate, eng.held = make(chan struct{}), make(chan struct{})
	n := loopNode(t, eng)
	n.onFrame(1, frame(0))
	<-eng.held
	for i := uint64(1); i <= inboxLimit; i++ {
		n.onFrame(1, frame(i))
	}
	return n, eng
}

// TestInboxBlocksWhenFull: at the bound a producer waits, and it resumes
// as soon as the loop drains — no event is lost or reordered.
func TestInboxBlocksWhenFull(t *testing.T) {
	n, eng := stalledFull(t)
	put := make(chan struct{})
	go func() {
		n.onFrame(1, frame(inboxLimit+1))
		close(put)
	}()
	select {
	case <-put:
		t.Fatal("a producer was not blocked by a full inbox")
	case <-time.After(50 * time.Millisecond):
	}
	close(eng.gate)
	select {
	case <-put:
	case <-time.After(5 * time.Second):
		t.Fatal("the blocked producer did not resume when the loop drained")
	}
	for i := uint64(0); i <= inboxLimit+1; i++ {
		if got := binary.BigEndian.Uint64(<-eng.frames); got != i {
			t.Fatalf("handled frame %d when %d was due", got, i)
		}
	}
}

// TestInboxCloseReleasesBlockedProducers: Close does not wait for room in a
// full inbox. Producers blocked on it return at once, the queued events are
// dropped, and once the event in progress returns no goroutine is left.
func TestInboxCloseReleasesBlockedProducers(t *testing.T) {
	before := runtime.NumGoroutine()
	n, eng := stalledFull(t)
	const blocked = 8
	var producers sync.WaitGroup
	for i := 0; i < blocked; i++ {
		producers.Add(1)
		go func() {
			defer producers.Done()
			n.onFrame(1, frame(inboxLimit+1))
		}()
	}
	abcast := make(chan error, 1)
	go func() {
		_, err := n.TryAbcast([]byte("late"))
		abcast <- err
	}()
	time.Sleep(20 * time.Millisecond) // let them reach the full inbox
	closed := make(chan error, 1)
	go func() { closed <- n.Close() }()
	released := make(chan struct{})
	go func() {
		producers.Wait()
		close(released)
	}()
	select {
	case <-released:
	case <-time.After(5 * time.Second):
		t.Fatal("Close left producers blocked on the full inbox")
	}
	if err := <-abcast; !errors.Is(err, types.ErrStopped) {
		t.Fatalf("a TryAbcast blocked at Close returned %v, want ErrStopped", err)
	}
	close(eng.gate) // the event in progress finishes; Close waits for it
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not return")
	}
	if got := len(eng.frames); got != 1 {
		t.Fatalf("the engine saw %d frames, want only the one in progress at Close", got)
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after Close, %d before the node", runtime.NumGoroutine(), before)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestTryAbcastAfterClose: a closed node refuses submissions with
// ErrStopped instead of queuing them or hanging.
func TestTryAbcastAfterClose(t *testing.T) {
	n := loopNode(t, newLoopEngine())
	if err := n.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := n.TryAbcast([]byte("x")); !errors.Is(err, types.ErrStopped) {
		t.Fatalf("TryAbcast after Close: %v, want ErrStopped", err)
	}
}

// TestLoopAllocs is the allocation ratchet of the event loop: a frame, a
// timer fire and a submission each reach the engine through a typed event
// and a pooled reply, with no allocation in the runtime on either side.
func TestLoopAllocs(t *testing.T) {
	eng := newLoopEngine()
	n := loopNode(t, eng)
	f := frame(7)
	for _, tc := range []struct {
		name string
		run  func()
	}{
		{"frame", func() {
			n.onFrame(1, f)
			<-eng.frames
		}},
		{"timer fire", func() {
			n.env.SetTimer(engine.TimerKick, 0)
			<-eng.fires
		}},
		{"TryAbcast", func() {
			if _, err := n.TryAbcast(f); err != nil {
				t.Fatal(err)
			}
		}},
	} {
		tc.run() // warm up: the timer's state, the reply pool
		if got := testing.AllocsPerRun(200, tc.run); got != 0 {
			t.Errorf("%s: %v allocs per event, want 0", tc.name, got)
		}
	}
}
