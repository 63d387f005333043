package chaos

import (
	"fmt"
	"os"
	"strconv"
	"testing"
	"time"

	"modab/internal/batch"
	"modab/internal/dissem"
	"modab/internal/engine"
	"modab/internal/netsim"
	"modab/internal/types"
)

// sweepFamily is one scenario family of the seed-sweep regression: a
// schedule generator (seeded, so every seed yields a fresh variation) and
// the stack configuration it runs under.
type sweepFamily struct {
	name     string
	schedule func(seed int64) Schedule
	config   func() StackConfig
}

// sweepFamilies are the six regression families of the chaos sweep:
// a partition during a W=4 pipeline, asymmetric drops on the round-1
// coordinator's outbound links, a partition overlapping a crash+restart
// on a durable cluster, a KV-loaded snapshot-install recovery (the
// crashed process comes back after its peers snapshotted and truncated
// past its watermark, so its only way back is a snapshot install — with
// applied-state equivalence checked across processes and stacks), a
// ring-dissemination cut (a partitioned ring edge on even seeds, a
// crashed-and-restarted mid-ring relayer on odd ones, under
// Dissemination=Ring on a durable cluster), and a digest-ordering family
// (KV-loaded batched cluster with WithDigestOrdering semantics: a
// lost-payload-before-decide partition that severs the announce path
// between two non-coordinator processes so decided descriptors arrive
// with non-resident payloads and the post-decide re-fetch must repair
// them, rotated by seed with crash+restart and an overlapping
// partition+crash on the durable cluster).
var sweepFamilies = []sweepFamily{
	{
		name: "partition-during-pipeline",
		schedule: func(seed int64) Schedule {
			a := types.ProcessID(seed % 3)
			b := types.ProcessID((seed + 1 + seed/3%2) % 3)
			from := 200*time.Millisecond + time.Duration(seed%7)*37*time.Millisecond
			return Schedule{
				{Kind: OpPartition, A: a, B: b, From: from, To: from + 400*time.Millisecond},
			}
		},
		config: func() StackConfig {
			cfg := engine.DefaultConfig(3)
			cfg.PipelineDepth = 4
			return StackConfig{Engine: cfg, Model: netsim.MetroModel(), Load: 900}
		},
	},
	{
		name: "asymmetric-drop-on-coordinator",
		schedule: func(seed int64) Schedule {
			// Degrade the round-1 coordinator's outbound links only: peers
			// stop hearing p1 reliably while p1 hears everything.
			drop := 0.15 + float64(seed%5)*0.1
			from := 150*time.Millisecond + time.Duration(seed%5)*53*time.Millisecond
			to := from + 500*time.Millisecond
			f := netsim.LinkFault{Drop: drop, Jitter: time.Millisecond, Dup: 0.05, Reorder: 0.1}
			return Schedule{
				{Kind: OpLinkFault, A: 0, B: 1, From: from, To: to, Fault: f},
				{Kind: OpLinkFault, A: 0, B: 2, From: from, To: to, Fault: f},
			}
		},
		config: func() StackConfig { return StackConfig{} },
	},
	{
		name: "partition-crash-restart",
		schedule: func(seed int64) Schedule {
			victim := types.ProcessID(1 + seed%2) // never the round-1 coordinator twice over
			other := types.ProcessID(2 - seed%2)
			crashAt := 300*time.Millisecond + time.Duration(seed%4)*41*time.Millisecond
			return Schedule{
				{Kind: OpPartition, A: 0, B: other, From: 200 * time.Millisecond, To: 650 * time.Millisecond},
				{Kind: OpCrash, A: victim, From: crashAt},
				{Kind: OpRestart, A: victim, From: crashAt + 500*time.Millisecond},
			}
		},
		config: func() StackConfig { return StackConfig{Durable: true} },
	},
	{
		name: "snapshot-install-recovery",
		schedule: func(seed int64) Schedule {
			victim := types.ProcessID(1 + seed%2)
			crashAt := 250*time.Millisecond + time.Duration(seed%4)*31*time.Millisecond
			// The long downtime lets the peers advance several snapshot
			// intervals past the victim's watermark while the short
			// decision horizon (below) prunes the decided instances it
			// would otherwise catch up from.
			return Schedule{
				{Kind: OpCrash, A: victim, From: crashAt},
				{Kind: OpRestart, A: victim, From: crashAt + 700*time.Millisecond},
			}
		},
		config: func() StackConfig {
			cfg := engine.DefaultConfig(3)
			cfg.DecisionHorizon = 16
			return StackConfig{Engine: cfg, Durable: true, KV: true, SnapshotEvery: 4, Load: 400}
		},
	},
	{
		name: "ring-cut",
		schedule: func(seed int64) Schedule {
			if seed%2 == 0 {
				// Cut one ring edge a→(a+1) mid-relay: the frames in flight
				// on it die, the FD-driven skip and the re-spread backstop
				// must route around until the heal.
				a := types.ProcessID(seed / 2 % 3)
				b := types.ProcessID((int(a) + 1) % 3)
				from := 250*time.Millisecond + time.Duration(seed%5)*43*time.Millisecond
				return Schedule{
					{Kind: OpPartition, A: a, B: b, From: from, To: from + 400*time.Millisecond},
				}
			}
			// Crash the mid-ring relayer p1 (p0 is the round-1 coordinator,
			// so p1 is the first hop of every proposal relay) and bring it
			// back on the durable cluster.
			crashAt := 300*time.Millisecond + time.Duration(seed%4)*37*time.Millisecond
			return Schedule{
				{Kind: OpCrash, A: 1, From: crashAt},
				{Kind: OpRestart, A: 1, From: crashAt + 450*time.Millisecond},
			}
		},
		config: func() StackConfig {
			cfg := engine.DefaultConfig(3)
			cfg.Dissemination = dissem.Ring
			return StackConfig{Engine: cfg, Durable: true, Load: 500}
		},
	},
	{
		name: "digest-ordering",
		schedule: func(seed int64) Schedule {
			switch seed % 3 {
			case 0:
				// Lost payload before decide: cut the link between the two
				// non-coordinator processes mid-injection. Announces each
				// origin sends the other die on the cut, while p0 keeps
				// ordering descriptors for everyone — so the far side
				// decides descriptors whose payload batches it never
				// received and must repair them through the post-decide
				// payload fetch (rotating away from the suspected origin).
				a := types.ProcessID(1)
				b := types.ProcessID(2)
				from := 150*time.Millisecond + time.Duration(seed%5)*47*time.Millisecond
				return Schedule{
					{Kind: OpPartition, A: a, B: b, From: from, To: from + 450*time.Millisecond},
				}
			case 1:
				// Crash+restart under digest ordering on the durable
				// cluster: recovery regroups the replayed own backlog into
				// fresh incarnation-tagged descriptors and re-announces.
				victim := types.ProcessID(1 + seed%2)
				crashAt := 300*time.Millisecond + time.Duration(seed%4)*43*time.Millisecond
				return Schedule{
					{Kind: OpCrash, A: victim, From: crashAt},
					{Kind: OpRestart, A: victim, From: crashAt + 500*time.Millisecond},
				}
			default:
				// Partition overlapping a crash: the payload holder set
				// shrinks while a link is down, so repair has to rotate
				// past both the dead origin and the unreachable peer.
				victim := types.ProcessID(1 + seed%2)
				other := types.ProcessID(2 - seed%2)
				crashAt := 300*time.Millisecond + time.Duration(seed%4)*37*time.Millisecond
				return Schedule{
					{Kind: OpPartition, A: 0, B: other, From: 200 * time.Millisecond, To: 650 * time.Millisecond},
					{Kind: OpCrash, A: victim, From: crashAt},
					{Kind: OpRestart, A: victim, From: crashAt + 450*time.Millisecond},
				}
			}
		},
		config: func() StackConfig {
			cfg := engine.DefaultConfig(3)
			cfg.DigestOrdering = true
			cfg.Batch = batch.Config{MaxMsgs: 8, MaxDelay: 2 * time.Millisecond}
			return StackConfig{Engine: cfg, Durable: true, KV: true, Load: 400}
		},
	},
	{
		name: "membership-churn",
		schedule: func(seed int64) Schedule {
			// One replace under fire: p4 joins, then a rotating boot member
			// is removed and decommissioned by a crash. Even seeds overlap
			// the join with a partition (the joiner's catch-up and the
			// config ops must ride out the cut); odd seeds crash+restart a
			// surviving member so its WAL replay rescans the decided config
			// ops, plus a wrong suspicion across the remove boundary.
			victim := types.ProcessID(seed % 3)
			sponsor := types.ProcessID((int(victim) + 1) % 3)
			other := types.ProcessID((int(victim) + 2) % 3)
			joinAt := 200*time.Millisecond + time.Duration(seed%5)*31*time.Millisecond
			removeAt := joinAt + 400*time.Millisecond
			crashAt := removeAt + 300*time.Millisecond
			s := Schedule{
				{Kind: OpJoin, A: 3, B: sponsor, From: joinAt},
				{Kind: OpLeave, A: victim, B: sponsor, From: removeAt},
				{Kind: OpCrash, A: victim, From: crashAt},
			}
			if seed%2 == 0 {
				s = append(s, Op{Kind: OpPartition, A: victim, B: other,
					From: joinAt - 50*time.Millisecond, To: joinAt + 250*time.Millisecond})
			} else {
				s = append(s,
					Op{Kind: OpCrash, A: other, From: joinAt + 100*time.Millisecond},
					Op{Kind: OpRestart, A: other, From: joinAt + 450*time.Millisecond},
					Op{Kind: OpSuspect, A: sponsor, B: other,
						From: removeAt, To: removeAt + 150*time.Millisecond})
			}
			return s
		},
		config: func() StackConfig {
			// KV state-digest equality must include the joiner; snapshots
			// run at the default cadence, so restarts and installs must
			// restore the views their snapshots cover.
			return StackConfig{Durable: true, KV: true, Load: 400}
		},
	},
}

// sweepSeeds returns how many seeds per family the sweep runs: 8 by
// default (the CI short soak), or CHAOS_SEEDS when set — the nightly-style
// long sweep (CHAOS_SEEDS=200 is the acceptance configuration).
func sweepSeeds(t *testing.T) int64 {
	if env := os.Getenv("CHAOS_SEEDS"); env != "" {
		n, err := strconv.ParseInt(env, 10, 64)
		if err != nil || n < 1 {
			t.Fatalf("bad CHAOS_SEEDS=%q: %v", env, err)
		}
		return n
	}
	if testing.Short() {
		return 3
	}
	return 8
}

// TestChaosSeedSweep is the seed-sweep regression: every family x seed
// runs the full two-stack scenario and asserts a gap-free, duplicate-free,
// identical total order in both stacks plus liveness after heal. A family
// sweeps every seed even past a failure and ends with the list of failing
// seeds: the full (minimized) report with the exact repro line for the
// first one, only the seed numbers for the rest.
func TestChaosSeedSweep(t *testing.T) {
	seeds := sweepSeeds(t)
	for _, fam := range sweepFamilies {
		fam := fam
		t.Run(fam.name, func(t *testing.T) {
			t.Parallel()
			var failed []int64
			var first string
			for seed := int64(0); seed < seeds; seed++ {
				sch := fam.schedule(seed)
				runFn := Run
				if failed != nil {
					runFn = run // only the first failure is minimized
				}
				res, err := runFn(seed, sch, fam.config())
				if err != nil {
					t.Fatalf("family %s seed %d: Run: %v", fam.name, seed, err)
				}
				if res.Ok() {
					continue
				}
				if failed == nil {
					first = fmt.Sprintf("seed %d:\n%s\nrepro: CHAOS_SEEDS=%d go test ./internal/chaos -run TestChaosSeedSweep/%s",
						seed, res.Report(), seed+1, fam.name)
				}
				failed = append(failed, seed)
			}
			if failed != nil {
				t.Fatalf("family %s: %d of %d seeds violated properties: %v\nfirst failing %s",
					fam.name, len(failed), seeds, failed, first)
			}
		})
	}
}

// TestChaosRandomSchedules sweeps fully randomized schedules (the
// generator exercised by the soak) over a smaller seed range.
func TestChaosRandomSchedules(t *testing.T) {
	seeds := sweepSeeds(t)
	if seeds > 32 {
		t.Logf("randomized-schedule sweep capped at 32 of the requested %d seeds (the family sweep carries the depth)", seeds)
		seeds = 32
	}
	for seed := int64(0); seed < seeds; seed++ {
		sch := RandomSchedule(ScheduleRNG(seed), 3, time.Second, true)
		res, err := Run(seed, sch, StackConfig{Durable: true})
		if err != nil {
			t.Fatalf("seed %d: Run: %v", seed, err)
		}
		if !res.Ok() {
			t.Fatalf("random schedule seed %d violated properties\n%s\nschedule:\n%s",
				seed, res.Report(), sch)
		}
	}
}
