package ct_test

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"modab/internal/engine"
	"modab/internal/enginetest"
	"modab/internal/member"
	"modab/internal/modular"
	"modab/internal/monolithic"
	"modab/internal/stack"
	"modab/internal/types"
	"modab/internal/wire"
)

// roundFrame is the header of one round-core frame: both codecs open every
// consensus message with type, instance and round.
type roundFrame struct {
	kind string // "proposal", "nack", "estimate", "fetch"; "" for anything else
	k    uint64
	r    uint32
}

// The two codecs' type bytes for the frames the scripts steer by (the
// netsim goldens pin both encodings).
var (
	modularKinds    = map[uint8]string{1: "estimate", 2: "proposal", 4: "nack", 6: "fetch"}
	monolithicKinds = map[uint8]string{1: "proposal", 3: "estimate", 4: "nack", 7: "fetch"}
)

// stackUnderTest is one stack as the scripts drive it.
type stackUnderTest struct {
	name   string
	build  func(engine.Env, engine.Config) engine.Engine
	decode func([]byte) roundFrame
}

var bothStacks = []stackUnderTest{
	{"modular", func(env engine.Env, c engine.Config) engine.Engine { return modular.New(env, c) }, decodeModular},
	{"monolithic", func(env engine.Env, c engine.Config) engine.Engine { return monolithic.New(env, c) }, decodeMonolithic},
}

func decodeModular(data []byte) roundFrame {
	if len(data) == 0 || stack.Tag(data[0]) != stack.TagConsensus {
		return roundFrame{}
	}
	return decodeHeader(data[1:], modularKinds)
}

func decodeMonolithic(data []byte) roundFrame { return decodeHeader(data, monolithicKinds) }

func decodeHeader(data []byte, kinds map[uint8]string) roundFrame {
	r := wire.NewReader(data)
	f := roundFrame{kind: kinds[r.Uint8()], k: r.Uint64(), r: r.Uint32()}
	if r.Err() != nil {
		return roundFrame{}
	}
	return f
}

// roundTrace is what the parity test compares per process.
type roundTrace struct {
	Sent      [][]string // per sender: nacks and estimates, "kind→to k/r", in send order
	Rounds    []int64    // per process: the Rounds counter
	Delivered [][]types.MsgID
}

// runRoundScript drives three engines of one stack through a fixed fault
// script, over the enginetest network:
//
//  1. p1 proposes "a" in round 1 and crashes mid-round: its proposal reaches
//     p2 and p3, nothing else of or to it does.
//  2. p2, then p3 suspect p1; p3's estimate makes p2 propose round 2, whose
//     proposal to p3 is lost, and p3's nack to p1 is held back.
//  3. p3 wrongly suspects p2 and nacks round 2; the nack moves p2 on and its
//     round-3 estimate is held while every suspicion heals, then delivered:
//     p3 decides round 3.
//  4. A view change: p2 submits the removal of p1, decided in round 2 of
//     instance 2 once p2 and p3 suspect p1 again, then "b" is ordered under
//     the new view.
//  5. p1 comes back and gets the nack held in step 2: it advances, and its
//     late estimate into the decided instance is answered with the decision.
func runRoundScript(t *testing.T, build func(engine.Env, engine.Config) engine.Engine, decode func([]byte) roundFrame) roundTrace {
	t.Helper()
	const n = 3
	cfg := engine.DefaultConfig(n)
	cfg.IdleKick = 0
	envs := make([]*enginetest.Env, n)
	engs := make([]engine.Engine, n)
	for i := range envs {
		envs[i] = enginetest.New(types.ProcessID(i), n)
		engs[i] = build(envs[i], cfg)
		engs[i].Start()
	}
	tr := roundTrace{Sent: make([][]string, n)}
	type held struct {
		from, to types.ProcessID
		data     []byte
	}
	var (
		down = true // p1 crashed: its links are down ...
		leak = true // ... but its round-1 proposal got out
		hold func(from, to types.ProcessID, f roundFrame) bool
		kept []held
	)
	net := &enginetest.Net{
		Envs: envs,
		Deliver: func(to, from types.ProcessID, data []byte) error {
			return engs[to].HandleMessage(from, data)
		},
		Drop: func(from, to types.ProcessID, data []byte) bool {
			f := decode(data)
			if f.kind == "nack" || f.kind == "estimate" {
				tr.Sent[from] = append(tr.Sent[from], fmt.Sprintf("%s→%s %d/%d", f.kind, to, f.k, f.r))
			}
			if hold != nil && hold(from, to, f) {
				kept = append(kept, held{from, to, data})
				return true
			}
			return down && (to == 0 || from == 0 && (!leak || f.kind != "proposal"))
		},
	}
	run := func() {
		t.Helper()
		if err := net.Run(); err != nil {
			t.Fatal(err)
		}
	}
	release := func() {
		t.Helper()
		for _, h := range kept {
			if err := engs[h.to].HandleMessage(h.from, h.data); err != nil {
				t.Fatal(err)
			}
		}
		kept = nil
		run()
	}

	// 1. The round-1 proposal reaches p2 and p3; the acks are lost.
	if _, err := engs[0].Abcast([]byte("a")); err != nil {
		t.Fatal(err)
	}
	run()
	leak = false

	// 2. Suspicion of the round-1 coordinator, mid-round.
	engs[1].Suspect(0, true)
	run()
	hold = func(from, to types.ProcessID, f roundFrame) bool {
		return from == 2 && to == 0 && f.kind == "nack" || from == 1 && to == 2 && f.kind == "proposal"
	}
	engs[2].Suspect(0, true)
	run()
	lateNack := kept[0]
	kept = nil

	// 3. A wrong suspicion, a nack and a held estimate.
	hold = func(from, to types.ProcessID, f roundFrame) bool {
		return from == 1 && to == 2 && f.kind == "estimate"
	}
	engs[2].Suspect(1, true)
	run()
	hold = nil
	engs[1].Suspect(0, false)
	engs[2].Suspect(0, false)
	engs[2].Suspect(1, false)
	release()

	// 4. The view change.
	if _, err := engs[1].(engine.ConfigSubmitter).SubmitConfig(member.Op{Kind: member.OpRemove, Target: 0}); err != nil {
		t.Fatal(err)
	}
	run()
	engs[1].Suspect(0, true)
	run()
	engs[2].Suspect(0, true)
	run()
	if v := engs[1].(engine.ConfigSubmitter).CurrentView(); v.Contains(0) {
		t.Fatalf("removal not applied: view %v", v)
	}
	if _, err := engs[1].Abcast([]byte("b")); err != nil {
		t.Fatal(err)
	}
	run()

	// 5. The late estimate.
	down = false
	kept = []held{lateNack}
	release()

	for i, env := range envs {
		tr.Rounds = append(tr.Rounds, env.Cnt.Rounds.Load())
		var ids []types.MsgID
		for _, d := range env.Deliveries {
			ids = append(ids, d.Msg.ID)
		}
		tr.Delivered = append(tr.Delivered, ids)
		if len(ids) == 0 {
			t.Fatalf("p%d delivered nothing", i+1)
		}
	}
	return tr
}

// TestCrossStackRoundParity is "the round rules exist once" as an
// assertion: one fault script — the round-1 coordinator suspected
// mid-round, a nack, a late estimate, a view change — drives both stacks
// through identical round transitions (every nack and estimate, with its
// instance, round and destination, in send order, and the Rounds counter)
// to identical deliveries. The stacks differ only in the envelope and in
// the §4 traffic around those frames.
func TestCrossStackRoundParity(t *testing.T) {
	mod := runRoundScript(t, bothStacks[0].build, bothStacks[0].decode)
	mono := runRoundScript(t, bothStacks[1].build, bothStacks[1].decode)
	want := [][]string{
		{"estimate→p2 1/2"},
		{"nack→p1 1/1", "estimate→p3 1/3", "nack→p1 2/1"},
		{"nack→p1 1/1", "estimate→p2 1/2", "nack→p2 1/2", "nack→p1 2/1", "estimate→p2 2/2"},
	}
	if !reflect.DeepEqual(mod.Sent, want) {
		t.Errorf("the script's round changes moved:\ngot  %q\nwant %q", mod.Sent, want)
	}
	if !reflect.DeepEqual(mod.Sent, mono.Sent) {
		t.Errorf("nacks and estimates differ:\nmodular    %v\nmonolithic %v", mod.Sent, mono.Sent)
	}
	if !reflect.DeepEqual(mod.Rounds, mono.Rounds) {
		t.Errorf("Rounds counters differ: modular %v, monolithic %v", mod.Rounds, mono.Rounds)
	}
	if !reflect.DeepEqual(mod.Delivered, mono.Delivered) {
		t.Errorf("deliveries differ:\nmodular    %v\nmonolithic %v", mod.Delivered, mono.Delivered)
	}
}

// fetchRig is three engines of one stack over the enginetest network, p1
// coordinating. Drop (optional) sees every frame decoded; fetches lists
// every decision fetch sent, "from→to k" in send order.
type fetchRig struct {
	cfg     engine.Config
	envs    []*enginetest.Env
	engs    []engine.Engine
	net     *enginetest.Net
	drop    func(from, to types.ProcessID, f roundFrame) bool
	fetches []string
}

func newFetchRig(t *testing.T, s stackUnderTest, cfg engine.Config) *fetchRig {
	t.Helper()
	const n = 3
	r := &fetchRig{cfg: cfg, envs: make([]*enginetest.Env, n), engs: make([]engine.Engine, n)}
	for i := range r.envs {
		r.envs[i] = enginetest.New(types.ProcessID(i), n)
		r.engs[i] = s.build(r.envs[i], cfg)
		r.engs[i].Start()
	}
	r.net = &enginetest.Net{
		Envs: r.envs,
		Deliver: func(to, from types.ProcessID, data []byte) error {
			return r.engs[to].HandleMessage(from, data)
		},
		Drop: func(from, to types.ProcessID, data []byte) bool {
			f := s.decode(data)
			if f.kind == "fetch" {
				r.fetches = append(r.fetches, fmt.Sprintf("%s→%s %d", from, to, f.k))
			}
			return r.drop != nil && r.drop(from, to, f)
		},
	}
	return r
}

func (r *fetchRig) run(t *testing.T) {
	t.Helper()
	if err := r.net.Run(); err != nil {
		t.Fatal(err)
	}
}

// abcast has p1 order one more message at virtual time at.
func (r *fetchRig) abcast(t *testing.T, at time.Duration, body string) {
	t.Helper()
	for _, env := range r.envs {
		env.Clock = at
	}
	if _, err := r.engs[0].Abcast([]byte(body)); err != nil {
		t.Fatal(err)
	}
	r.run(t)
}

// fire advances p's clock to at and fires every timer armed there since
// the last fire, once each.
func (r *fetchRig) fire(t *testing.T, p int, at time.Duration) {
	t.Helper()
	env := r.envs[p]
	env.Clock = at
	armed := env.Timers
	env.Timers = nil
	fired := make(map[engine.TimerID]bool)
	for _, tm := range armed {
		if !tm.Canceled && !fired[tm.ID] {
			fired[tm.ID] = true
			r.engs[p].HandleTimer(tm.ID)
		}
	}
	r.run(t)
}

func (r *fetchRig) delivered() [][]types.MsgID {
	out := make([][]types.MsgID, len(r.envs))
	for i, env := range r.envs {
		for _, d := range env.Deliveries {
			out[i] = append(out[i], d.Msg.ID)
		}
	}
	return out
}

// TestFetchTimerNotRearmed: p2 hears an announcement every half resend
// period for an instance whose proposal it never gets, from an announcer
// that never answers it. Each asks the announcer once, but the fetch timer
// is armed once and left alone until it fires (re-arming replaces the
// deadline, so announcements arriving faster than the period would keep it
// from ever firing); its fire then asks a member other than the announcer.
func TestFetchTimerNotRearmed(t *testing.T) {
	for _, s := range bothStacks {
		t.Run(s.name, func(t *testing.T) {
			cfg := engine.DefaultConfig(3)
			cfg.IdleKick = 0
			r := newFetchRig(t, s, cfg)
			r.drop = func(from, to types.ProcessID, f roundFrame) bool {
				return from == 0 && to == 1 && f.kind == "proposal" || from == 1 && to == 0 && f.kind == "fetch"
			}
			period := cfg.ResendEvery
			for i, body := range []string{"a", "b"} {
				r.abcast(t, time.Duration(i)*period/2, body)
				if got := len(r.envs[1].Timers); got != 1 {
					t.Fatalf("after announcement %d p2 armed %d timers, want the fetch timer armed once: %+v",
						i+1, got, r.envs[1].Timers)
				}
			}
			if want := []string{"p2→p1 1", "p2→p1 2"}; !reflect.DeepEqual(r.fetches, want) {
				t.Fatalf("immediate fetches %q, want %q", r.fetches, want)
			}
			r.fetches = nil
			r.fire(t, 1, period)
			if len(r.fetches) == 0 {
				t.Fatal("the fetch timer fired and asked nobody")
			}
			for _, f := range r.fetches {
				if !strings.HasPrefix(f, "p2→p3 ") {
					t.Fatalf("the retry sent %q, want every fetch to p3", r.fetches)
				}
			}
			if got := len(r.envs[1].Deliveries); got != 2 {
				t.Fatalf("p2 delivered %d after the retry, want 2", got)
			}
		})
	}
}

// TestCrossStackFetchParity is "the decision fetch exists once" as an
// assertion: p2 loses instance 1's proposal, asks the announcer (p1), which
// crashes before answering; once p2 suspects it, the fetch timer asks the
// next member. Both stacks send the same fetches, in the same order, and
// make the same deliveries, with payloads in the proposals and under
// digest ordering.
func TestCrossStackFetchParity(t *testing.T) {
	for _, digest := range []bool{false, true} {
		t.Run(fmt.Sprintf("digest=%v", digest), func(t *testing.T) {
			var fetches [][]string
			var delivered [][][]types.MsgID
			for _, s := range bothStacks {
				cfg := engine.DefaultConfig(3)
				cfg.IdleKick = 0
				cfg.DigestOrdering = digest
				r := newFetchRig(t, s, cfg)
				down := false // p1 crashed
				r.drop = func(from, to types.ProcessID, f roundFrame) bool {
					if f.kind == "fetch" && to == 0 {
						down = true // right after announcing
					}
					return down && (from == 0 || to == 0) || from == 0 && to == 1 && f.kind == "proposal" && f.k == 1
				}
				r.abcast(t, 0, "a")
				if !down {
					t.Fatalf("%s: p2 never asked the announcer", s.name)
				}
				r.engs[1].Suspect(0, true)
				r.run(t)
				r.fire(t, 1, cfg.ResendEvery)
				fetches = append(fetches, r.fetches)
				delivered = append(delivered, r.delivered())
			}
			if want := []string{"p2→p1 1", "p2→p3 1"}; !reflect.DeepEqual(fetches[0], want) {
				t.Errorf("modular fetches %q, want %q", fetches[0], want)
			}
			if !reflect.DeepEqual(fetches[0], fetches[1]) {
				t.Errorf("fetches differ:\nmodular    %q\nmonolithic %q", fetches[0], fetches[1])
			}
			if len(delivered[0][1]) != 1 {
				t.Errorf("modular p2 delivered %v, want the one message", delivered[0][1])
			}
			if !reflect.DeepEqual(delivered[0], delivered[1]) {
				t.Errorf("deliveries differ:\nmodular    %v\nmonolithic %v", delivered[0], delivered[1])
			}
		})
	}
}
