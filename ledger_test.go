package modab_test

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"modab/internal/batch"
	"modab/internal/engine"
	"modab/internal/modular"
	"modab/internal/monolithic"
	"modab/internal/netsim"
	"modab/internal/rsm"
	"modab/internal/types"
	"modab/internal/wire"
)

// ledgerRuns re-measures every row that many times and rewrites ledgerFile:
// the median, and for allocations twice the spread (≥ 1 %) as tolerance.
var ledgerRuns = flag.Int("ledger.runs", 0, "re-measure the cost ledger this many times and rewrite it")

// ledgerWorkload is one bench/ workload's engine configuration, copied from
// bench/workloads.go's workloads and engineConfig (bench is its own module).
// crash-recover runs without its crash: the ledger prices the fault-free path.
type ledgerWorkload struct {
	name            string
	body, pipeline  int // body: abcast body bytes; 0 means KV commands
	batch           batch.Config
	digest, durable bool
	snapEvery       uint64
}

var ledgerWorkloads = []ledgerWorkload{
	{name: "paper-mem", body: 64},
	{name: "tuned-tcp", body: 1024, batch: batched, pipeline: 4, digest: true},
	{name: "durable-kv", batch: batched, durable: true},
	{name: "crash-recover", batch: batched, durable: true, snapEvery: 512},
}

// The load: ledgerWarm, then ledgerMsgs measured messages, from three senders in turn.
const (
	ledgerFile = "testdata/cost_ledger.txt"
	ledgerWarm = 1500
	ledgerMsgs = 3000
	ledgerRate = 1000
)

var (
	batched       = batch.Config{MaxMsgs: 32, MaxDelay: 2 * time.Millisecond}
	raceDetector  bool // set under -race, whose instrumentation allocates: the allocation rows are not checked
	ledgerMetrics = [6]string{"allocs", "alloc_bytes", "wire_msgs", "wire_bytes", "dispatches", "log_syncs"}
)

// countingPersister counts log writes: one sync each under fsync=always.
type countingPersister struct {
	engine.Persister
	n *int64
}

func (p countingPersister) PersistAdmit(b wire.Batch) { *p.n++; p.Persister.PersistAdmit(b) }
func (p countingPersister) PersistDecision(k uint64, b wire.Batch) {
	*p.n++
	p.Persister.PersistDecision(k, b)
}

// nullEngine sends each submission to every peer and delivers it on
// arrival: its cost per message is the driver's own. It arms no timer.
type nullEngine struct {
	engine.Engine
	env engine.Env
}

func (e *nullEngine) Start() {}
func (e *nullEngine) HandleMessage(from types.ProcessID, data []byte) error {
	e.env.Deliver(engine.Delivery{Msg: wire.AppMsg{ID: types.MsgID{Sender: from}, Body: data}})
	return nil
}
func (e *nullEngine) Abcast(body []byte) (types.MsgID, error) {
	for p := 0; p < e.env.N(); p++ {
		e.env.Send(types.ProcessID(p), body) // Send skips self
	}
	return types.MsgID{}, e.HandleMessage(e.env.Self(), body)
}

// measureCost runs w on stack ("modular", "monolithic" or "driver") and
// returns its cost per adelivered message.
func measureCost(t *testing.T, w ledgerWorkload, stack string) (out [len(ledgerMetrics)]float64) {
	var syncs, delivered int64
	cfg := engine.DefaultConfig(3)
	cfg.Batch, cfg.PipelineDepth, cfg.DigestOrdering = w.batch, w.pipeline, w.digest
	opts := netsim.Options{N: 3, Stack: types.Modular, Engine: cfg, Durable: w.durable, SnapshotEvery: w.snapEvery, Seed: 1,
		OnDeliver: func(types.ProcessID, engine.Delivery, time.Duration) { delivered++ },
		NewEngine: func(env engine.Env, cfg engine.Config) engine.Engine {
			if cfg.Persist != nil {
				cfg.Persist = countingPersister{cfg.Persist, &syncs}
			}
			if stack == "modular" {
				return modular.New(env, cfg)
			} else if stack == "monolithic" {
				return monolithic.New(env, cfg)
			}
			return &nullEngine{env: env}
		}}
	bodies := [][]byte{make([]byte, w.body)}
	if w.body == 0 {
		opts.StateMachine, bodies = func() rsm.StateMachine { return rsm.NewKV() }, nil
		for i := 0; i < 256; i++ { // 80 % puts of 240 B values, 20 % gets, over 256 12 B keys
			key := fmt.Appendf(nil, "key-%08d", i)
			bodies = append(bodies, rsm.EncodePut(key, make([]byte, 240)))
			if i%5 == 4 {
				bodies[i] = rsm.EncodeGet(key)
			}
		}
	}
	c, err := netsim.NewCluster(opts)
	if err != nil {
		t.Fatal(err)
	}
	const interval = time.Second / ledgerRate
	for i := 0; i < ledgerWarm+ledgerMsgs; i++ {
		c.Abcast(types.ProcessID(i%3), time.Duration(i)*interval, bodies[i%len(bodies)], nil)
	}
	sample := func() [len(ledgerMetrics) + 1]float64 { // the last: messages adelivered
		runtime.GC() // flushes every P's allocation counts into the metrics
		s := []metrics.Sample{{Name: "/gc/heap/allocs:objects"}, {Name: "/gc/heap/allocs:bytes"}}
		metrics.Read(s)
		tc := c.TotalCounters()
		return [...]float64{float64(s[0].Value.Uint64()), float64(s[1].Value.Uint64()), float64(tc.MsgsSent),
			float64(tc.BytesSent), float64(tc.Dispatches), float64(syncs), float64(delivered) / 3}
	}
	c.Run(ledgerWarm * interval)
	before := sample()
	c.RunIdle(10 * time.Second)
	after := sample()
	msgs := after[len(out)] - before[len(out)]
	if errs := c.Errs(); len(errs) > 0 || msgs < ledgerMsgs*9/10 {
		t.Fatalf("%s/%s: %.0f of %d measured messages delivered, errors %v", w.name, stack, msgs, ledgerMsgs, errs)
	}
	for i := range out {
		out[i], _ = strconv.ParseFloat(fmt.Sprintf("%.6g", (after[i]-before[i])/msgs), 64)
	}
	return out
}

// TestCostLedger is the paper's §5.2 accounting kept in tier-1 (ROADMAP
// item 13): the cost per adelivered message of every bench/ workload's
// configuration, on both stacks and on the driver alone. A rise past a
// row's tolerance fails; a fall past it asks for the ledger to be lowered.
func TestCostLedger(t *testing.T) {
	ledger := map[string][2]float64{}  // "workload stack metric" → value, tolerance
	data, _ := os.ReadFile(ledgerFile) // a missing file fails the row count below
	for _, line := range strings.Split(string(data), "\n") {
		var w, s, m string
		var want, tol float64
		if _, err := fmt.Sscan(line, &w, &s, &m, &want, &tol); err == nil {
			ledger[w+" "+s+" "+m] = [2]float64{want, tol}
		}
	}
	out := "# workload stack metric per-adelivered-message tolerance (go test -run TestCostLedger . -args -ledger.runs=20)\n"
	for _, w := range ledgerWorkloads {
		for _, stack := range []string{"driver", "modular", "monolithic"} {
			var runs [len(ledgerMetrics)][]float64
			for range max(1, *ledgerRuns) {
				for i, v := range measureCost(t, w, stack) {
					runs[i] = append(runs[i], v)
				}
			}
			for i, m := range ledgerMetrics {
				vs, key := runs[i], w.name+" "+stack+" "+m
				slices.Sort(vs)
				v, tol := vs[len(vs)/2], 0.0
				if i < 2 { // allocations vary a little from run to run; the counts are exact
					tol = max(2*(vs[len(vs)-1]-vs[0]), v/100)
				}
				out += fmt.Sprintf("%s %.6g %.3g\n", key, v, tol)
				switch want := ledger[key]; {
				case *ledgerRuns > 0, raceDetector && i < 2:
				case v > want[0]+want[1]:
					t.Errorf("%s: %.6g per message, ledger %.6g (tolerance %.3g)", key, v, want[0], want[1])
				case v < want[0]-want[1]:
					t.Logf("%s: %.6g per message, below the ledger's %.6g: lower the ledger", key, v, want[0])
				}
			}
		}
	}
	if *ledgerRuns > 0 {
		if err := os.WriteFile(ledgerFile, []byte(out), 0o644); err != nil {
			t.Fatal(err)
		}
	} else if want := 3 * len(ledgerWorkloads) * len(ledgerMetrics); len(ledger) != want {
		t.Errorf("%s has %d well-formed rows, want %d", ledgerFile, len(ledger), want)
	}
}
