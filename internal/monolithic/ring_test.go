package monolithic

import (
	"bytes"
	"testing"

	"modab/internal/dissem"
	"modab/internal/engine"
	"modab/internal/enginetest"
	"modab/internal/types"
	"modab/internal/wire"
)

// ringCfg is the default config with ring dissemination and timers off.
func ringCfg(n int) engine.Config {
	cfg := engine.DefaultConfig(n)
	cfg.IdleKick = 0
	cfg.Dissemination = dissem.Ring
	return cfg
}

// proposalFrame reports whether a monolithic wire message carries the
// bulky combined proposal+decision — directly (mPropDec) or ring-wrapped
// (a relay frame). The mtype is the first wire byte.
func proposalFrame(data []byte) bool {
	return len(data) > 0 && mtype(data[0]) == mPropDec || relayFrame(data)
}

// relayFrame reports whether a monolithic wire message is a ring relay.
func relayFrame(data []byte) bool { return wire.FrameKind(frameOf(data)) == wire.FrameRelay }

// TestRingCoordinatorProposesOnce pins the coordinator-NIC fix: under
// Ring the coordinator transmits each proposal exactly once (as a relay
// to its successor) instead of broadcasting it n-1 times.
func TestRingCoordinatorProposesOnce(t *testing.T) {
	r := newRig(t, 5, ringCfg(5))
	body := bytes.Repeat([]byte("x"), 4096)

	proposals := 0
	r.net.Deliver = func(to, from types.ProcessID, data []byte) error {
		if from == 0 && proposalFrame(data) {
			proposals++
		}
		return r.engs[to].HandleMessage(from, data)
	}
	if _, err := r.engs[0].Abcast(body); err != nil {
		t.Fatal(err)
	}
	r.run(t)
	r.checkTotalOrder(t, 1)
	if proposals != 1 {
		t.Fatalf("coordinator transmitted %d proposal frames, want exactly 1", proposals)
	}
	egress := 0
	for l, b := range r.net.LinkBytes {
		if l.From == 0 {
			egress += b
		}
	}
	if egress >= 2*len(body) {
		t.Fatalf("coordinator egress %dB under Ring, want < %dB (one payload + control)", egress, 2*len(body))
	}
}

// TestRingDuplicateRelaySuppressed duplicates every relay frame on the
// wire and asserts the dedup watermark keeps relayers from forwarding the
// copy: every ring link carries each relay at most twice (the original
// plus the injected duplicate; a third would be a relayed duplicate), and
// delivery stays an exact, duplicate-free total order.
func TestRingDuplicateRelaySuppressed(t *testing.T) {
	r := newRig(t, 4, ringCfg(4))
	relays := make(map[enginetest.Link]int)
	r.net.Dup = func(from, to types.ProcessID, data []byte) bool {
		return relayFrame(data)
	}
	r.net.Deliver = func(to, from types.ProcessID, data []byte) error {
		if relayFrame(data) {
			relays[enginetest.Link{From: from, To: to}]++
		}
		return r.engs[to].HandleMessage(from, data)
	}
	if _, err := r.engs[0].Abcast([]byte("payload")); err != nil {
		t.Fatal(err)
	}
	r.run(t)
	r.checkTotalOrder(t, 1)
	for l, c := range relays {
		if c > 2 {
			t.Fatalf("link %v→%v carried %d relay frames; dedup failed to suppress a duplicate", l.From, l.To, c)
		}
	}
}

// TestRingSkipsSuspectedSuccessor crashes the coordinator's successor
// and suspects it everywhere: the proposal relay must skip it and every
// live process must still decide and deliver.
func TestRingSkipsSuspectedSuccessor(t *testing.T) {
	r := newRig(t, 4, ringCfg(4))
	crashed := types.ProcessID(1)
	for p := 0; p < 4; p++ {
		if types.ProcessID(p) != crashed {
			r.engs[p].Suspect(crashed, true)
		}
	}
	toCrashed := 0
	r.net.Drop = func(from, to types.ProcessID, data []byte) bool {
		if to != crashed {
			return false
		}
		if proposalFrame(data) {
			toCrashed++
		}
		return true
	}
	if _, err := r.engs[0].Abcast([]byte("payload")); err != nil {
		t.Fatal(err)
	}
	r.run(t)
	if toCrashed != 0 {
		t.Fatalf("%d proposal frames were sent to the suspected successor, want 0 (skip)", toCrashed)
	}
	for _, p := range []int{0, 2, 3} {
		if got := len(r.order(p)); got != 1 {
			t.Fatalf("live process p%d delivered %d messages, want 1", p, got)
		}
	}
}

// TestRingDefersDecisionFetch pins the ring's deferred decision fetch: an
// announcement that outruns its relayed proposal sends no mDecisionReq at
// once (an immediate ask per announcement floods the decider with
// full-decision re-serves); the fetch timer, armed once, asks one peer
// only after a full resend period passes with no decision.
func TestRingDefersDecisionFetch(t *testing.T) {
	cfg := ringCfg(3)
	r := newRig(t, 3, cfg)
	var (
		held []byte
		asks []types.ProcessID
	)
	r.net.Drop = func(from, to types.ProcessID, data []byte) bool {
		if from == 2 && mtype(data[0]) == mDecisionReq {
			asks = append(asks, to)
		}
		if from == 1 && to == 2 && relayFrame(data) && held == nil {
			held = data // p3's copy of the relayed proposal is late
			return true
		}
		return false
	}
	if _, err := r.engs[0].Abcast([]byte("a")); err != nil {
		t.Fatal(err)
	}
	r.run(t)
	if held == nil {
		t.Fatal("no relay reached p3's link")
	}
	if len(r.envs[2].Deliveries) != 0 {
		t.Fatal("p3 decided without the proposal")
	}
	if len(asks) != 0 {
		t.Fatalf("p3 asked %v at once, want the fetch deferred", asks)
	}
	var armed []enginetest.Timer
	for _, tm := range r.envs[2].Timers {
		if tm.ID == engine.TimerResend {
			armed = append(armed, tm)
		}
	}
	if len(armed) != 1 || armed[0].Canceled || armed[0].Delay != cfg.ResendEvery {
		t.Fatalf("fetch timer arms %+v, want one of %v", armed, cfg.ResendEvery)
	}
	r.envs[2].Clock += cfg.ResendEvery
	r.engs[2].HandleTimer(engine.TimerResend)
	r.run(t)
	if len(asks) != 1 || asks[0] == 2 {
		t.Fatalf("after a period with no decision p3 asked %v, want one peer", asks)
	}
	r.checkTotalOrder(t, 1)
}
