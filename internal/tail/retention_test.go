package tail

import (
	"math/rand"
	"reflect"
	"testing"
	"time"

	"modab/internal/engine"
	"modab/internal/types"
	"modab/internal/wire"
)

// TestDescDoneMatchesSweep holds the queue-driven retirement of the
// decided-descriptor set to the rule it replaced — after every commit,
// sweep the whole map and drop what sits at or below the horizon — across
// random sequences of commits, descriptors ordered again by a later
// pipelined instance, announce-path marks stamped one instance behind the
// commit in progress, and re-marks of descriptors already retired.
func TestDescDoneMatchesSweep(t *testing.T) {
	const horizon = 5
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		h := newHost(0, 3, func(c *engine.Config) { c.DigestOrdering = true; c.DecisionHorizon = horizon })
		ref := make(map[types.MsgID]uint64)
		var minted []wire.Descriptor
		pick := func() wire.Descriptor {
			if len(minted) == 0 || rng.Intn(3) == 0 {
				d := wire.Descriptor{Origin: types.ProcessID(1 + rng.Intn(2)), DSeq: uint64(len(minted) + 1), FirstSeq: uint64(len(minted)*4 + 1), Count: 4}
				minted = append(minted, d)
				return d
			}
			if rng.Intn(4) == 0 {
				return minted[rng.Intn(len(minted))] // any age: long retired ones too
			}
			return minted[len(minted)-1-rng.Intn(min(len(minted), 8))]
		}
		mark := func(d wire.Descriptor, k uint64) {
			ref[types.MsgID{Sender: d.Origin, Seq: d.DSeq}] = k
		}
		for k := uint64(1); k <= 600; k++ {
			for i := rng.Intn(3); i > 0; i-- { // the announce path, between commits
				d := pick()
				h.t.markDone(d, h.t.Next()-1)
				mark(d, h.t.Next()-1)
			}
			var descs []wire.Descriptor
			for i := rng.Intn(4); i > 0; i-- {
				d := pick()
				descs = append(descs, d)
				mark(d, k)
			}
			h.commit(k, nil, descs)
			if k > horizon {
				for id, dk := range ref {
					if dk <= k-horizon {
						delete(ref, id)
					}
				}
			}
			if !reflect.DeepEqual(h.t.descDone, ref) {
				t.Fatalf("seed %d after commit %d: descDone %v, sweep reference %v", seed, k, h.t.descDone, ref)
			}
			if h.t.doneAt.Len() > 8*horizon {
				t.Fatalf("seed %d after commit %d: %d queued marks", seed, k, h.t.doneAt.Len())
			}
		}
	}
}

// commitLoad is a digest-ordering tail in retention steady state: resident
// payload messages held by the decision horizon, one 32-message descriptor
// announced, resolved and committed per step (so one leaves per step too).
type commitLoad struct {
	h    *fakeHost
	k    uint64
	body []byte
}

const commitBatch = 32

func newCommitLoad(resident int) *commitLoad {
	l := &commitLoad{body: make([]byte, 64)}
	l.h = newHost(0, 3, func(c *engine.Config) {
		c.DigestOrdering = true
		c.DecisionHorizon = resident / commitBatch
	})
	for l.h.t.Store.Len() < resident {
		l.step()
	}
	return l
}

func (l *commitLoad) step() {
	b := make(wire.Batch, commitBatch)
	for i := range b {
		b[i] = wire.AppMsg{ID: types.MsgID{Sender: 1, Seq: l.k*commitBatch + uint64(i) + 1}, Body: l.body}
	}
	l.k++
	d, err := wire.DescriptorFor(b, l.k)
	if err != nil {
		panic(err)
	}
	l.h.t.Announce(d, b)
	resolved, descs, blocked := l.h.t.Resolve(wire.Batch{d.AppMsg()})
	if blocked {
		panic("announced payload not resident")
	}
	l.h.commit(l.k, resolved, descs)
	l.h.env.Deliveries = l.h.env.Deliveries[:0]
}

// BenchmarkCommitDigest is the per-commit cost of the digest delivery tail
// at three resident-set sizes and one batch shape: it must not depend on
// how much the horizon retains.
func BenchmarkCommitDigest(b *testing.B) {
	for _, bc := range []struct {
		name     string
		resident int
	}{{"resident=1k", 1 << 10}, {"resident=16k", 16 << 10}, {"resident=64k", 64 << 10}} {
		b.Run(bc.name, func(b *testing.B) {
			l := newCommitLoad(bc.resident)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				l.step()
			}
			if got := l.h.t.Store.Len(); got != bc.resident {
				b.Fatalf("resident %d, want a steady %d", got, bc.resident)
			}
		})
	}
}

// TestCommitCostIndependentOfResidency fails if committing with 64 k
// resident payloads costs more than 4× what it costs with 1 k. Retirement
// by instance order keeps the two within cache effects of each other; a
// sweep of the resident set per commit puts them ~64× apart.
func TestCommitCostIndependentOfResidency(t *testing.T) {
	perCommit := func(resident int) time.Duration {
		l := newCommitLoad(resident)
		best := time.Duration(1 << 62)
		for round := 0; round < 5; round++ { // the minimum filters scheduler noise
			const commits = 1000
			start := time.Now()
			for i := 0; i < commits; i++ {
				l.step()
			}
			best = min(best, time.Since(start)/commits)
		}
		return best
	}
	small, large := perCommit(1<<10), perCommit(64<<10)
	t.Logf("per commit: %v at 1 k resident, %v at 64 k", small, large)
	if large > 4*small {
		t.Fatalf("commit at 64 k resident costs %v, more than 4× the %v at 1 k", large, small)
	}
}
