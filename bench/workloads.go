package main

import (
	"fmt"
	"time"

	"modab"
)

// groupSize is the n of every real-driver run (the deterministic harness
// additionally runs the paper configuration at n = 7).
const groupSize = 3

// kvKeys, kvKeyLen and kvValueLen fix the KV workloads' command shape:
// 80 % puts of a 240 B value / 20 % ordered gets over 10 000 12 B keys.
const (
	kvKeys     = 10000
	kvKeyLen   = 12
	kvValueLen = 240
	kvPutShare = 0.8
)

// lostAfter is the latency beyond which an open-loop op counts as failed on
// every workload: as good as lost. Each workload also has its own, tighter
// latency limit (workload.limit); ops over it are counted and printed
// separately. At HEAD both stacks now and then fall behind for 50-500 ms at
// these rates (episodes that end on the engines' 50 ms idle-kick or 100 ms
// resend timers), so folding the limit into "failed" would leave no workload
// free of failed ops, which a benchmark's workloads must be.
const lostAfter = time.Second

// workload is one named configuration. The names and rates are
// frozen: later issues refer to them, and a rate changed here silently
// changes what every latency figure means.
type workload struct {
	name string
	// why is the one-line rationale BENCHMARK.json carries.
	why string
	// bodyLen is the abcast body size; 0 means KV commands.
	bodyLen int
	tcp     bool
	durable bool
	// snapEvery is the snapshot cadence in instances (0 = no snapshots).
	snapEvery uint64
	// The engine options beyond transport and durability: sender-side
	// batching (32 messages, no byte cap, 2 ms), the consensus pipeline
	// depth (0 = sequential) and digest ordering.
	batching bool
	pipeline int
	digest   bool
	// openRate is the open-loop Poisson arrival rate in ops/s.
	openRate float64
	// limit is the open-loop latency limit: ops slower than it are reported
	// as over the limit (see lostAfter).
	limit time.Duration
	// crash selects the crash→degraded→restart→recovered scenario for the
	// open-loop phase.
	crash bool
	// warmOps is the closed-loop warm-up length of one set-up, in ops
	// (about 0.4 s of saturated load on the descriptor machine).
	warmOps int
}

func (w workload) kv() bool { return w.bodyLen == 0 }

// The batching every tuned workload uses.
const (
	batchMsgs  = 32
	batchDelay = 2 * time.Millisecond
)

// options returns w's tuning as facade options.
func (w workload) options() []modab.Option {
	var o []modab.Option
	if w.batching {
		o = append(o, modab.WithBatching(batchMsgs, 0, batchDelay))
	}
	if w.pipeline > 0 {
		o = append(o, modab.WithPipelining(w.pipeline))
	}
	if w.digest {
		o = append(o, modab.WithDigestOrdering())
	}
	return o
}

// engineConfig returns the engine.Config those options produce, for the
// deterministic harness, which builds engines without the facade.
func (w workload) engineConfig(n int) modab.Config {
	cfg := modab.DefaultConfig(n)
	if w.batching {
		cfg.Batch = modab.BatchConfig{MaxMsgs: batchMsgs, MaxDelay: batchDelay}
	}
	cfg.PipelineDepth = w.pipeline
	cfg.DigestOrdering = w.digest
	return cfg
}

var workloads = []workload{
	{
		name:     "paper-mem",
		why:      "paper config (64 B, every option off, in-memory): per-message handler CPU, dispatches and frames dominate; modular/monolithic gap is largest",
		bodyLen:  64,
		openRate: 20000,
		limit:    50 * time.Millisecond,
		warmOps:  20000,
	},
	{
		name:     "tuned-tcp",
		why:      "1 KiB bodies, batching+pipelining+digest ordering over TCP loopback: ordering is amortised, so codec, copies, CRC and socket writes carry the cost",
		bodyLen:  1024,
		tcp:      true,
		batching: true,
		pipeline: 4,
		digest:   true,
		openRate: 30000,
		limit:    100 * time.Millisecond,
		warmOps:  30000,
	},
	{
		name:     "durable-kv",
		why:      "replicated KV (80% put/20% get) with a fsync=always WAL on tmpfs and batching: WAL append/sync and state-machine apply sit on every op's delivery path",
		durable:  true,
		batching: true,
		openRate: 25000,
		limit:    100 * time.Millisecond,
		warmOps:  30000,
	},
	{
		name:      "crash-recover",
		why:       "durable-kv plus snapshots; coordinator crashes and restarts under scheduled load: WAL replay, snapshot restore, state transfer, failure detection and round change instead of the fault-free path",
		durable:   true,
		snapEvery: 512,
		batching:  true,
		openRate:  5000,
		limit:     time.Second,
		crash:     true,
		warmOps:   30000,
	},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

var stacks = []modab.Stack{modab.Modular, modab.Monolithic}

func stackName(s modab.Stack) string {
	if s == modab.Modular {
		return "modular"
	}
	return "monolithic"
}
