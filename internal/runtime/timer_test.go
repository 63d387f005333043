package runtime

import (
	"sync"
	"testing"
	"time"

	"modab/internal/engine"
	"modab/internal/member"
	"modab/internal/transport"
	"modab/internal/types"
)

// noConfig is the membership half of a fake engine: a fixed view.
type noConfig struct{}

func (noConfig) SubmitConfig(member.Op) (types.MsgID, error) { return types.MsgID{}, nil }
func (noConfig) CurrentView() member.View                    { return member.View{} }

// timerEngine records timer fires; nothing else is called on it.
type timerEngine struct {
	noConfig
	mu    sync.Mutex
	fires []time.Time
}

func (e *timerEngine) Start()                                      {}
func (e *timerEngine) HandleMessage(types.ProcessID, []byte) error { return nil }
func (e *timerEngine) Abcast([]byte) (types.MsgID, error)          { return types.MsgID{}, nil }
func (e *timerEngine) Suspect(types.ProcessID, bool)               {}
func (e *timerEngine) Pending() int                                { return 0 }
func (e *timerEngine) HandleTimer(engine.TimerID) {
	e.mu.Lock()
	e.fires = append(e.fires, time.Now())
	e.mu.Unlock()
}

func (e *timerEngine) count() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return len(e.fires)
}

// timerNode is a Node reduced to what nodeEnv's timers touch: the inbox,
// which the test drains by hand, and the engine.
func timerNode() (*Node, *timerEngine) {
	eng := &timerEngine{}
	n := &Node{eng: eng, inbox: transport.NewQueue[event](inboxLimit)}
	n.env = &nodeEnv{node: n, start: time.Now(), timers: make(map[engine.TimerID]*timerState)}
	return n, eng
}

// drain runs what the timers posted for d, as the event loop would.
func drain(n *Node, d time.Duration) {
	stop := time.After(d)
	var batch []event
	for {
		select {
		case <-n.inbox.Ready():
			batch, _ = n.inbox.Take(batch)
			for _, ev := range batch {
				n.handle(ev)
			}
		case <-stop:
			return
		}
	}
}

// checkFires asserts what every fire owes the arming in force when it ran
// (the last one before it — armings and fires share the test goroutine):
// it came no earlier than one period after it, and no arming fired twice.
func checkFires(t *testing.T, arms, fires []time.Time, period time.Duration) {
	t.Helper()
	prev := -1
	for _, f := range fires {
		i := len(arms) - 1
		for i > 0 && arms[i].After(f) {
			i--
		}
		if f.Sub(arms[i]) < period {
			t.Fatalf("fire %v after the arming in force, before its %v period", f.Sub(arms[i]), period)
		}
		if i == prev {
			t.Fatalf("arming %d fired twice", i)
		}
		prev = i
	}
}

// TestTimerRearmFiresOnceAfterLastArming is the contract the engines'
// kick timers lean on: re-arming replaces the deadline, so a timer
// re-armed faster than its period does not fire (unless the re-arming
// itself stalls for a period), and the last arming fires exactly once.
func TestTimerRearmFiresOnceAfterLastArming(t *testing.T) {
	n, eng := timerNode()
	const period = 30 * time.Millisecond
	var arms []time.Time
	for i := 0; i < 80; i++ { // well past one period of re-arming
		arms = append(arms, time.Now())
		n.env.SetTimer(engine.TimerKick, period)
		drain(n, time.Millisecond)
	}
	during := eng.count()
	drain(n, 4*period)
	checkFires(t, arms, eng.fires, period)
	if got := eng.count() - during; got != 1 {
		t.Fatalf("timer fired %d times after the last arming, want 1", got)
	}
	if during > 2 {
		t.Fatalf("timer fired %d times while being re-armed every ms", during)
	}
}

// TestTimerQueuedFireDroppedByRearmAndCancel: a fire already queued on the
// loop when the engine re-arms or cancels the timer must not reach it.
func TestTimerQueuedFireDroppedByRearmAndCancel(t *testing.T) {
	n, eng := timerNode()
	n.env.SetTimer(engine.TimerKick, time.Millisecond)
	time.Sleep(20 * time.Millisecond) // expired: the fire sits in the inbox
	n.env.SetTimer(engine.TimerKick, 150*time.Millisecond)
	drain(n, 10*time.Millisecond)
	if got := eng.count(); got != 0 {
		t.Fatalf("stale queued fire delivered after a re-arm (%d fires)", got)
	}
	drain(n, 300*time.Millisecond)
	if got := eng.count(); got != 1 {
		t.Fatalf("re-armed timer fired %d times, want 1", got)
	}
	n.env.SetTimer(engine.TimerKick, time.Millisecond)
	time.Sleep(20 * time.Millisecond)
	n.env.CancelTimer(engine.TimerKick)
	n.env.SetTimer(engine.TimerResend, time.Millisecond) // another ID is untouched
	drain(n, 50*time.Millisecond)
	if got := eng.count(); got != 2 {
		t.Fatalf("%d fires after cancel + one other timer, want 2", got)
	}
}

// TestTimerRearmRacesFire re-arms with a period around the re-arm interval,
// so Reset keeps racing the timer's own goroutine: every fire must still
// belong to an arming that was left alone for its whole period.
func TestTimerRearmRacesFire(t *testing.T) {
	n, eng := timerNode()
	var arms []time.Time
	const period = 200 * time.Microsecond
	for i := 0; i < 600; i++ {
		arms = append(arms, time.Now())
		n.env.SetTimer(engine.TimerKick, period)
		drain(n, time.Duration(i%5)*100*time.Microsecond)
	}
	drain(n, 20*time.Millisecond)
	n.env.stopTimers()
	if eng.count() == 0 {
		t.Fatal("no timer ever fired")
	}
	checkFires(t, arms, eng.fires, period)
}

// TestWindowPulseOnlyWakesRegisteredWaiters: an own adelivery allocates
// and closes a channel only if an Abcast parked since the last one, and a
// pulse between a caller's failed try and its wait is never lost.
func TestWindowPulseOnlyWakesRegisteredWaiters(t *testing.T) {
	n, _ := timerNode()
	seq := n.winSeq.Load()
	n.windowPulse()
	if n.winCh != nil {
		t.Fatal("pulse without a parked Abcast made a channel")
	}
	if n.windowWait(seq) != nil {
		t.Fatal("a pulse after the caller read seq must not park it")
	}
	wait := n.windowWait(n.winSeq.Load())
	if wait == nil || wait != n.windowWait(n.winSeq.Load()) {
		t.Fatal("parked callers must share one channel")
	}
	select {
	case <-wait:
		t.Fatal("woken without a pulse")
	default:
	}
	n.windowPulse()
	select {
	case <-wait:
	default:
		t.Fatal("pulse did not wake the parked caller")
	}
}

// TestTimerLaterRearmFiresOnceAtLaterDeadline: a re-arm to a later
// deadline leaves the runtime timer alone; its early fire re-arms for the
// remainder, and the engine sees one fire, no sooner than the later
// deadline.
func TestTimerLaterRearmFiresOnceAtLaterDeadline(t *testing.T) {
	n, eng := timerNode()
	armed := time.Now()
	n.env.SetTimer(engine.TimerKick, 20*time.Millisecond)
	n.env.SetTimer(engine.TimerKick, 80*time.Millisecond)
	drain(n, 200*time.Millisecond)
	if got := eng.count(); got != 1 {
		t.Fatalf("%d fires, want 1", got)
	}
	if d := eng.fires[0].Sub(armed); d < 80*time.Millisecond {
		t.Fatalf("fired %v after arming, before the later deadline", d)
	}
}

// TestTimerEarlierRearmFiresEarly: a re-arm to an earlier deadline resets
// the runtime timer, so the fire comes at the earlier deadline, once.
func TestTimerEarlierRearmFiresEarly(t *testing.T) {
	n, eng := timerNode()
	armed := time.Now()
	n.env.SetTimer(engine.TimerKick, time.Hour)
	n.env.SetTimer(engine.TimerKick, 10*time.Millisecond)
	drain(n, 150*time.Millisecond)
	if got := eng.count(); got != 1 {
		t.Fatalf("%d fires, want 1", got)
	}
	if d := eng.fires[0].Sub(armed); d < 10*time.Millisecond || d > 140*time.Millisecond {
		t.Fatalf("fired %v after arming, want about 10ms", d)
	}
}

// TestTimerStaleFireDropped: the early fire of a timer re-armed later, and
// the fire of a cancelled timer, reach the loop but not the engine.
func TestTimerStaleFireDropped(t *testing.T) {
	n, eng := timerNode()
	n.env.SetTimer(engine.TimerKick, 10*time.Millisecond)
	n.env.SetTimer(engine.TimerKick, 60*time.Millisecond) // the 10ms fire is early
	drain(n, 30*time.Millisecond)
	n.env.CancelTimer(engine.TimerKick) // the re-armed 60ms fire is stale
	drain(n, 100*time.Millisecond)
	n.env.SetTimer(engine.TimerResend, 10*time.Millisecond)
	n.env.CancelTimer(engine.TimerResend)
	drain(n, 50*time.Millisecond)
	if got := eng.count(); got != 0 {
		t.Fatalf("%d stale fires reached the engine", got)
	}
	n.env.SetTimer(engine.TimerKick, 10*time.Millisecond) // a cancelled timer re-arms
	drain(n, 60*time.Millisecond)
	if got := eng.count(); got != 1 {
		t.Fatalf("%d fires after re-arming a cancelled timer, want 1", got)
	}
}
