// Command abnode runs one process of an atomic broadcast group over real
// TCP — the deployment shape of the paper's testbed. Start n copies (on
// one machine or several), give each the same -peers list and its own
// -id, and they form a group.
//
// Example (three processes on one machine):
//
//	abnode -id 0 -peers 127.0.0.1:7000,127.0.0.1:7001,127.0.0.1:7002 -stack monolithic -rate 100 -size 1024
//	abnode -id 1 -peers 127.0.0.1:7000,127.0.0.1:7001,127.0.0.1:7002 -stack monolithic -rate 100 -size 1024
//	abnode -id 2 -peers 127.0.0.1:7000,127.0.0.1:7001,127.0.0.1:7002 -stack monolithic -rate 100 -size 1024
//
// Each process abcasts -size byte messages at -rate msgs/s for -dur, then
// reports its measured throughput, latency of its own messages, and the
// group-visible counters. Deliveries are consumed from the cluster's
// pull-based stream; -dropslow switches the stream to the drop overflow
// policy so a lagging consumer shows up as a nonzero streamDropped
// counter instead of backpressuring the protocol.
//
// With -digest (requires -batch-msgs) the group runs digest ordering:
// each sender disseminates its payload batches exactly once over the
// -dissem topology and consensus orders compact descriptors instead of
// payload-carrying frames (see modab.WithDigestOrdering). All processes
// must agree on the flag.
//
// With -join the process starts outside the boot group and asks a
// running member (-sponsor) to admit it: the AddProcess op rides the
// total order, every member learns the joiner's address from the
// decided op itself, and the joiner catches up through state transfer
// before participating. Its own listen address must appear in its
// -peers list at index -id; the boot members keep their original short
// -peers list. For a second or later joiner, whose -peers already
// lists earlier joiners, -bootn must name the original boot-group
// size. Removal is an operator action on any member (see
// modab.Cluster.Remove); the removed process is then simply stopped.
//
// Example (join a fourth process to the group above):
//
//	abnode -id 3 -peers 127.0.0.1:7000,...,127.0.0.1:7003 -join -sponsor 0 -stack monolithic -wal /tmp/p3
//
// With -wal the process runs in the crash-recovery model: admissions and
// decisions are persisted to a write-ahead log in that directory (-fsync
// picks the policy), and a killed process restarted with the same -wal
// directory replays its log and performs state transfer before resuming.
//
// With -kv the process additionally runs the built-in replicated
// key/value state machine and serves it over HTTP (see kv.go for the
// API); -snapshot-every sets the snapshot cadence, and combined with
// -wal a restarted process recovers its KV state from the newest
// snapshot plus a bounded log suffix. KV serving usually wants a long
// -dur and -rate 0 (no synthetic load — synthetic payloads are not KV
// commands and apply as no-op bad commands).
// -seqlog appends one "sender seq instance" line per delivery — across a
// restart the file accumulates both incarnations' streams, which is how
// the integration tests verify the recovered total order.
//
// With -metrics the process serves its live observability surface over
// HTTP: Prometheus text format at /metrics (every counter plus latency
// histograms for adeliver, apply, fsync, recovery and snapshot install),
// expvar at /debug/vars, and net/http/pprof under /debug/pprof/. Use
// ":0" to pick a free port; the bound address is printed at startup.
//
// SIGINT/SIGTERM trigger a graceful shutdown: injection stops, the WAL is
// flushed, the transport closes, and the delivery stream drains before
// the summary prints.
package main

import (
	"bufio"
	"bytes"
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"sync"
	"syscall"
	"time"

	"modab"
	"modab/internal/obs"
	"modab/internal/stats"
	"modab/internal/trace"
)

// deliveryOptions are the options of abnode's own delivery subscription:
// -dropslow selects the drop overflow policy, the default backpressures.
func deliveryOptions(dropslow bool) []modab.StreamOption {
	if dropslow {
		return []modab.StreamOption{modab.StreamOverflow(modab.OverflowDrop)}
	}
	return nil
}

// openSeqlog opens the -seqlog audit file for appending. A SIGKILLed
// incarnation can leave a torn last line behind; it is cut back to the
// last newline so this incarnation's first line does not extend it.
func openSeqlog(path string) (*os.File, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	data, err := io.ReadAll(f)
	if err == nil {
		err = f.Truncate(int64(bytes.LastIndexByte(data, '\n') + 1))
	}
	if err != nil {
		_ = f.Close()
		return nil, err
	}
	return f, nil
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "abnode:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		id       = flag.Int("id", -1, "this process's ID (0-based index into -peers)")
		peers    = flag.String("peers", "", "comma-separated listen addresses, indexed by ID")
		stackArg = flag.String("stack", "modular", `implementation: "modular" or "monolithic"`)
		rate     = flag.Float64("rate", 50, "abcast rate of this process (msgs/s); 0 = listen only")
		size     = flag.Int("size", 1024, "payload size (bytes)")
		dur      = flag.Duration("dur", 10*time.Second, "injection duration")
		quiet    = flag.Bool("quiet", false, "suppress per-delivery output")
		dropslow = flag.Bool("dropslow", false, "drop deliveries instead of backpressuring when the consumer lags")

		batchMsgs  = flag.Int("batch-msgs", 0, "sender-side batching: messages per batch (0 = disabled)")
		batchBytes = flag.Int("batch-bytes", 0, "sender-side batching: encoded bytes per batch (0 = no byte cap)")
		batchDelay = flag.Duration("batch-delay", 2*time.Millisecond, "sender-side batching: flush delay for undersized batches")
		pipeline   = flag.Int("pipeline", 0, "consensus pipeline window W: instances kept in flight concurrently (0/1 = sequential)")
		dissemArg  = flag.String("dissem", "", `payload dissemination topology: "all-to-all" (default) or "ring"`)
		digest     = flag.Bool("digest", false, "digest ordering: disseminate payload batches once, run consensus on compact descriptors (requires -batch-msgs)")

		join    = flag.Bool("join", false, "start as a joiner: this process is not in the boot group; it asks -sponsor to admit it and catches up through state transfer (its own address must still be in -peers at index -id)")
		sponsor = flag.Int("sponsor", 0, "with -join: ID of the member asked to sponsor the admission")
		bootN   = flag.Int("bootn", 0, "with -join: original boot-group size (0 = infer as -id; set explicitly when -peers already lists earlier joiners)")

		walDir  = flag.String("wal", "", "write-ahead-log directory: enables crash recovery (restart with the same directory to rejoin)")
		fsync   = flag.String("fsync", "always", `WAL fsync policy: "always", "interval" or "none"`)
		seqPath = flag.String("seqlog", "", "append one line per delivered message to this file (total-order audit trail)")

		kvAddr    = flag.String("kv", "", "serve the replicated key/value store over HTTP at this address (usually with -rate 0)")
		snapEvery = flag.Uint64("snapshot-every", 64, "with -kv: snapshot the state machine every N consensus instances (0 = never)")

		metricsAddr = flag.String("metrics", "", `serve live metrics at this address: Prometheus /metrics, expvar /debug/vars, net/http/pprof (":0" picks a free port; the bound address is printed)`)
	)
	flag.Parse()

	addrs := strings.Split(*peers, ",")
	if *peers == "" || len(addrs) < 1 {
		return fmt.Errorf("-peers required (comma-separated addresses)")
	}
	if *id < 0 || *id >= len(addrs) {
		return fmt.Errorf("-id must index into -peers (got %d of %d)", *id, len(addrs))
	}
	var stk modab.Stack
	switch *stackArg {
	case "modular":
		stk = modab.Modular
	case "monolithic":
		stk = modab.Monolithic
	default:
		return fmt.Errorf("unknown -stack %q", *stackArg)
	}

	self := modab.ProcessID(*id)
	opts := []modab.Option{modab.WithTransportTCP(addrs, self)}
	if *join {
		if *sponsor < 0 || *sponsor >= len(addrs) || *sponsor == *id {
			return fmt.Errorf("-sponsor must name another peer (got %d)", *sponsor)
		}
		opts = append(opts, modab.WithJoin(*bootN))
	}
	bcfg := modab.BatchConfig{MaxMsgs: *batchMsgs, MaxBytes: *batchBytes, MaxDelay: *batchDelay}
	if err := bcfg.Validate(); err != nil {
		return err
	}
	if bcfg.Enabled() {
		opts = append(opts, modab.WithBatching(bcfg.MaxMsgs, bcfg.MaxBytes, bcfg.MaxDelay))
	}
	if *pipeline > 1 {
		opts = append(opts, modab.WithPipelining(*pipeline))
	}
	if *dissemArg != "" {
		strategy, err := modab.ParseDissemination(*dissemArg)
		if err != nil {
			return fmt.Errorf("unknown -dissem %q", *dissemArg)
		}
		opts = append(opts, modab.WithDissemination(strategy))
	}
	if *digest {
		if !bcfg.Enabled() {
			return fmt.Errorf("-digest requires sender batching (-batch-msgs)")
		}
		opts = append(opts, modab.WithDigestOrdering())
	}
	if *walDir != "" {
		var policy modab.SyncPolicy
		switch *fsync {
		case "always":
			policy = modab.SyncAlways
		case "interval":
			policy = modab.SyncInterval
		case "none":
			policy = modab.SyncNone
		default:
			return fmt.Errorf("unknown -fsync %q", *fsync)
		}
		opts = append(opts, modab.WithDurability(*walDir, policy))
	}
	if *metricsAddr != "" {
		opts = append(opts, modab.WithObservability(0))
	}
	var kvLocal *modab.KV
	if *kvAddr != "" {
		opts = append(opts, modab.WithStateMachine(func() modab.StateMachine {
			kvLocal = modab.NewKV()
			return kvLocal
		}, *snapEvery))
	}

	var seqlog *bufio.Writer
	var seqfile *os.File
	if *seqPath != "" {
		f, err := openSeqlog(*seqPath)
		if err != nil {
			return err
		}
		seqfile = f
		seqlog = bufio.NewWriter(f)
	}

	cluster, err := modab.New(len(addrs), stk, opts...)
	if err != nil {
		return err
	}
	fmt.Printf("%s up as %s of %d peers, stack=%s\n", self, self, len(addrs), stk)
	var kvSrv *http.Server
	if *kvAddr != "" {
		srv, err := startKVServer(*kvAddr, cluster, *id, kvLocal)
		if err != nil {
			_ = cluster.Close()
			return fmt.Errorf("kv listen: %w", err)
		}
		kvSrv = srv
		fmt.Printf("%s serving KV over HTTP at %s\n", self, *kvAddr)
	}
	var metricsSrv *http.Server
	if *metricsAddr != "" {
		ln, err := net.Listen("tcp", *metricsAddr)
		if err != nil {
			_ = cluster.Close()
			return fmt.Errorf("metrics listen: %w", err)
		}
		metricsSrv = &http.Server{Handler: obs.NewHTTPHandler(
			func() trace.Snapshot { return cluster.Counters(*id) },
			cluster.Obs(*id))}
		go func() { _ = metricsSrv.Serve(ln) }()
		fmt.Printf("%s serving metrics at http://%s/metrics\n", self, ln.Addr())
	}

	// Graceful shutdown on SIGINT/SIGTERM: stop injecting, flush the WAL
	// and close the transport (cluster.Close), drain the delivery stream.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *join {
		fmt.Printf("%s requesting admission via %s\n", self, modab.ProcessID(*sponsor))
		jctx, jcancel := context.WithTimeout(ctx, time.Minute)
		err := cluster.RequestJoin(jctx, modab.ProcessID(*sponsor))
		jcancel()
		if err != nil {
			_ = cluster.Close()
			return fmt.Errorf("join: %w", err)
		}
		fmt.Printf("%s admitted: view %v\n", self, cluster.View(*id))
	}

	// Consume deliveries from the stream on a dedicated goroutine. An own
	// delivery can overtake the Abcast that submitted it, so the two sides
	// meet in a rendezvous: t0s holds the submit times of IDs not yet
	// delivered, and early the delivery times of own IDs delivered while
	// the injector's one Abcast was still in flight.
	var (
		mu        sync.Mutex
		delivered int
		t0s       = map[modab.MsgID]time.Time{}
		early     = map[modab.MsgID]time.Time{}
		inflight  bool
		lat       stats.Series
	)
	sub := cluster.Deliveries(deliveryOptions(*dropslow)...)
	var consumerWG sync.WaitGroup
	consumerWG.Add(1)
	go func() {
		defer consumerWG.Done()
		for ev := range sub.C() {
			mu.Lock()
			delivered++
			if t0, ok := t0s[ev.D.Msg.ID]; ok {
				lat.Add(time.Since(t0).Seconds())
				delete(t0s, ev.D.Msg.ID)
			} else if inflight && ev.D.Msg.ID.Sender == self {
				early[ev.D.Msg.ID] = time.Now()
			}
			count := delivered
			if seqlog != nil {
				fmt.Fprintf(seqlog, "%d %d %d\n", int32(ev.D.Msg.ID.Sender), ev.D.Msg.ID.Seq, ev.D.Instance)
			}
			mu.Unlock()
			if !*quiet && count%100 == 0 {
				fmt.Printf("%s delivered %d messages (last: %s in instance %d)\n",
					self, count, ev.D.Msg.ID, ev.D.Instance)
			}
		}
	}()

	// Give peers a moment to come up before injecting.
	select {
	case <-time.After(time.Second):
	case <-ctx.Done():
	}

	start := time.Now()
	sent := 0
	interrupted := false
	if *rate > 0 && ctx.Err() == nil {
		interval := time.Duration(float64(time.Second) / *rate)
		body := make([]byte, *size)
		ticker := time.NewTicker(interval)
		defer ticker.Stop()
		abctx, cancel := context.WithDeadline(ctx, start.Add(*dur+time.Minute))
		defer cancel()
	inject:
		for time.Since(start) < *dur {
			select {
			case <-ticker.C:
			case <-ctx.Done():
				interrupted = true
				break inject
			}
			mu.Lock()
			inflight = true
			mu.Unlock()
			submit := time.Now()
			msgID, err := cluster.Abcast(abctx, *id, body)
			mu.Lock()
			if at, ok := early[msgID]; ok {
				lat.Add(at.Sub(submit).Seconds())
			} else if err == nil {
				t0s[msgID] = submit
			}
			inflight = false
			clear(early) // any other entry is an own ID this loop did not submit
			mu.Unlock()
			if err != nil {
				if ctx.Err() != nil {
					interrupted = true
					break inject
				}
				return fmt.Errorf("abcast: %w", err)
			}
			sent++
		}
	} else {
		select {
		case <-time.After(*dur):
		case <-ctx.Done():
			interrupted = true
		}
	}

	// Drain: wait for our own messages to come back (skipped when a
	// signal asked for an immediate, orderly exit).
	deadline := time.Now().Add(10 * time.Second)
	for !interrupted {
		mu.Lock()
		outstanding := len(t0s)
		mu.Unlock()
		if outstanding == 0 || time.Now().After(deadline) {
			break
		}
		select {
		case <-time.After(50 * time.Millisecond):
		case <-ctx.Done():
			interrupted = true
		}
	}

	elapsed := time.Since(start).Seconds()
	counters := cluster.Counters(*id)
	// Close order: the KV front end first (stop taking requests), then the
	// cluster (final WAL sync, transport teardown, stream end), then the
	// consumer drains what is buffered, then the audit trail flushes.
	if kvSrv != nil {
		_ = kvSrv.Close()
	}
	if metricsSrv != nil {
		_ = metricsSrv.Close()
	}
	closeErr := cluster.Close()
	consumerWG.Wait()
	if seqlog != nil {
		mu.Lock()
		_ = seqlog.Flush()
		_ = seqfile.Close()
		mu.Unlock()
	}
	mu.Lock()
	defer mu.Unlock()
	if interrupted {
		fmt.Printf("\n%s interrupted: graceful shutdown complete\n", self)
	}
	fmt.Printf("\n%s summary: sent=%d delivered=%d (%.1f msgs/s)\n",
		self, sent, delivered, float64(delivered)/elapsed)
	if lat.N() > 0 {
		fmt.Printf("own-message latency: mean=%.2fms p50=%.2fms p99=%.2fms (n=%d)\n",
			lat.Mean()*1e3, lat.Median()*1e3, lat.Percentile(99)*1e3, lat.N())
	}
	fmt.Printf("counters: %s\n", counters)
	if dropped := sub.Dropped(); dropped > 0 {
		fmt.Printf("delivery stream dropped %d messages (consumer lagged)\n", dropped)
	}
	return closeErr
}
