package main

import (
	"bytes"
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"modab/internal/engine"
	"modab/internal/recovery"
	"modab/internal/rsm"
	"modab/internal/stream"
	"modab/internal/transport"
	"modab/internal/types"
	"modab/internal/wal"
	"modab/internal/wire"
)

// Leaf micro-timings: the public functions of wire, transport, wal, stream
// and rsm, timed on the frame, batch and command shapes the workload
// produces. They are also the bounds the end-to-end figures chase: loopback
// bandwidth, sync rate, one hop.

// microBudget is how long each timing loop runs at full scale.
const microBudget = 60 * time.Millisecond

// timeLoop calls fn repeatedly for about budget and returns the mean
// duration of one call in ns, with the number of calls.
func timeLoop(budget time.Duration, fn func()) (ns float64, calls int) {
	fn() // first call pays for lazily grown buffers
	start := time.Now()
	for time.Since(start) < budget {
		for i := 0; i < 16; i++ {
			fn()
		}
		calls += 16
	}
	return float64(time.Since(start)) / float64(calls), calls
}

// shape is the batch a workload puts on the wire and in the log.
type shape struct {
	batch   wire.Batch
	payload int // body bytes in the batch
}

// workloadShape builds one sealed sender batch as the harness saw them:
// size messages of the workload's bodies from one origin with contiguous
// sequence numbers.
func workloadShape(w workload, seed uint64, size int) shape {
	in := newInputs(w, seed)
	r := rand.New(rand.NewPCG(seed, 0x6d6963726f))
	var s shape
	for i := 0; i < size; i++ {
		body := in.body(r)
		s.batch = append(s.batch, wire.AppMsg{ID: types.MsgID{Sender: 0, Seq: uint64(i + 1)}, Body: body})
		s.payload += len(body)
	}
	return s
}

// microWire times the codec on the workload's dissemination frame: the
// announce frame under digest ordering, the batch frame otherwise.
func microWire(ms *metricSet, budget time.Duration, w workload, s shape) error {
	k := float64(len(s.batch))
	wr := wire.NewWriter(s.payload + 64*len(s.batch))
	encode := func() { wr.Reset(); wire.AppendBatchFrame(wr, s.batch) }
	decode := func(frame []byte) error { _, err := wire.UnmarshalFrame(frame); return err }
	if w.digest {
		d, err := wire.DescriptorFor(s.batch, 1)
		if err != nil {
			return err
		}
		encode = func() { wr.Reset(); wire.AppendAnnounceFrame(wr, d, s.batch) }
		decode = func(frame []byte) error { _, _, err := wire.UnmarshalAnnounceFrame(frame); return err }
	}
	ns, calls := timeLoop(budget, encode)
	ms.put("wire.encode_ns_per_msg", "ns", ns/k, calls)
	frame := append([]byte(nil), wr.Bytes()...)
	var derr error
	ns, calls = timeLoop(budget, func() { derr = decode(frame) })
	if derr != nil {
		return derr
	}
	ms.put("wire.decode_ns_per_msg", "ns", ns/k, calls)
	var sink uint32
	ns, calls = timeLoop(budget, func() { sink += wire.BatchDigest(s.batch) })
	_ = sink
	ms.put("wire.digest_ns_per_kib", "ns", ns/(float64(s.payload)/1024), calls)
	return nil
}

// pingPong measures the one-way hop of a transport pair as half the mean
// round trip of a 64 B frame.
func pingPong(budget time.Duration, a, b transport.Transport) (hopUs float64, trips int, err error) {
	back := make(chan struct{}, 1)
	if err := b.Start(func(from types.ProcessID, data []byte) { _ = b.Send(from, data) }); err != nil {
		return 0, 0, err
	}
	if err := a.Start(func(types.ProcessID, []byte) { back <- struct{}{} }); err != nil {
		return 0, 0, err
	}
	frame := make([]byte, 64)
	trip := func() error {
		if err := a.Send(1, frame); err != nil {
			return err
		}
		select {
		case <-back:
			return nil
		case <-time.After(2 * time.Second):
			return fmt.Errorf("no echo within 2 s")
		}
	}
	for i := 0; i < 50; i++ { // connect and warm
		if err := trip(); err != nil {
			return 0, 0, err
		}
	}
	start := time.Now()
	for time.Since(start) < 2*budget {
		if err := trip(); err != nil {
			return 0, 0, err
		}
		trips++
	}
	return float64(time.Since(start)) / float64(trips) / 2 / 1e3, trips, nil
}

func microMem(ms *metricSet, budget time.Duration) error {
	net := transport.NewMemNetwork()
	ma, mb := net.Endpoint(0), net.Endpoint(1)
	hop, trips, err := pingPong(budget, ma, mb)
	_ = ma.Close()
	_ = mb.Close()
	if err != nil {
		return err
	}
	ms.put("transport.mem.hop_us", "us", hop, trips)
	return nil
}

// microTCP times the TCP transport over loopback and returns the bandwidth
// of one connection in MB/s, the bound on payload throughput.
func microTCP(ms *metricSet, budget time.Duration) (bandwidth float64, err error) {
	pair := func() (*transport.TCP, *transport.TCP, error) {
		addrs, err := loopbackAddrs(2)
		if err != nil {
			return nil, nil, err
		}
		a, err := transport.NewTCP(0, addrs)
		if err != nil {
			return nil, nil, err
		}
		b, err := transport.NewTCP(1, addrs)
		if err != nil {
			_ = a.Close()
			return nil, nil, err
		}
		return a, b, nil
	}
	ta, tb, err := pair()
	if err != nil {
		return 0, err
	}
	hop, trips, err := pingPong(budget, ta, tb)
	_ = ta.Close()
	_ = tb.Close()
	if err != nil {
		return 0, fmt.Errorf("hop: %w", err)
	}
	ms.put("transport.tcp.hop_us", "us", hop, trips)

	// One-way streams: the cost of a Send call, and the bytes per second a
	// loopback connection carries — the bound on payload throughput.
	ta, tb, err = pair()
	if err != nil {
		return 0, err
	}
	defer ta.Close()
	defer tb.Close()
	var got atomic.Int64
	if err := tb.Start(func(_ types.ProcessID, data []byte) { got.Add(int64(len(data))) }); err != nil {
		return 0, err
	}
	if err := ta.Start(func(types.ProcessID, []byte) {}); err != nil {
		return 0, err
	}
	var serr error
	send := func(frame []byte) func() {
		return func() {
			if err := ta.Send(1, frame); err != nil {
				serr = err
			}
		}
	}
	ns, calls := timeLoop(budget, send(make([]byte, 64)))
	ms.put("transport.tcp.send_ns_small", "ns", ns, calls)
	large := make([]byte, 32<<10)
	before, start := got.Load(), time.Now()
	ns, calls = timeLoop(budget, send(large))
	for deadline := time.Now().Add(2 * time.Second); got.Load() < before+int64(calls+1)*int64(len(large)) && time.Now().Before(deadline); {
		time.Sleep(100 * time.Microsecond)
	}
	elapsed := time.Since(start)
	if serr != nil {
		return 0, fmt.Errorf("stream: %w", serr)
	}
	ms.put("transport.tcp.send_ns_large", "ns", ns, calls)
	bandwidth = float64(got.Load()-before) / 1e6 / elapsed.Seconds()
	ms.put("transport.tcp.bandwidth_mb_s", "MB/s", bandwidth, calls)
	return bandwidth, nil
}

// microWAL times the log on the workload's decision records. tmp is on the
// filesystem the durable workloads log to; disk is inside the checkout.
func microWAL(ms *metricSet, budget time.Duration, s shape, tmp, disk string) error {
	dir, err := os.MkdirTemp(tmp, "microwal-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	k := float64(len(s.batch))

	log, err := wal.Open(filepath.Join(dir, "append"), wal.Options{Policy: wal.SyncNone})
	if err != nil {
		return err
	}
	inst := uint64(0)
	ns, calls := timeLoop(budget, func() { inst++; log.PersistDecision(inst, s.batch) })
	ms.put("wal.append_ns_per_msg", "ns", ns/k, calls)
	var serr error
	var syncNs int64
	_, calls = timeLoop(budget, func() {
		inst++
		log.PersistDecision(inst, s.batch)
		t := time.Now()
		if err := log.Sync(); err != nil {
			serr = err
		}
		syncNs += int64(time.Since(t))
	})
	if err := log.Close(); err != nil {
		return err
	}
	if serr != nil {
		return serr
	}
	ms.put("wal.sync_us", "us", float64(syncNs)/float64(calls+1)/1e3, calls)

	// Replay: a log of 10 000 messages, reopened and read back.
	rdir := filepath.Join(dir, "replay")
	log, err = wal.Open(rdir, wal.Options{Policy: wal.SyncNone})
	if err != nil {
		return err
	}
	records := (10000 + len(s.batch) - 1) / len(s.batch)
	for i := 1; i <= records; i++ {
		log.PersistDecision(uint64(i), s.batch)
	}
	if err := log.Close(); err != nil {
		return err
	}
	start := time.Now()
	if log, err = wal.Open(rdir, wal.Options{Policy: wal.SyncNone}); err != nil {
		return err
	}
	msgs := 0
	err = log.Replay(func(r recovery.Rec) error { msgs += len(r.Batch); return nil })
	elapsed := time.Since(start)
	_ = log.Close()
	if err != nil {
		return err
	}
	ms.put("wal.replay_ms_per_10k_msgs", "ms", elapsed.Seconds()*1e3*10000/float64(msgs), msgs)

	// The same sync on the checkout's disk: calibration of how far the
	// tmpfs figures are from a real device.
	ddir, err := os.MkdirTemp(disk, "diskwal-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(ddir)
	if log, err = wal.Open(ddir, wal.Options{Policy: wal.SyncNone}); err != nil {
		return err
	}
	const diskSyncs = 8
	syncNs = 0
	for i := 1; i <= diskSyncs; i++ {
		log.PersistDecision(uint64(i), s.batch)
		t := time.Now()
		if err := log.Sync(); err != nil {
			_ = log.Close()
			return err
		}
		syncNs += int64(time.Since(t))
	}
	_ = log.Close()
	ms.put("wal.disk_sync_us", "us", float64(syncNs)/diskSyncs/1e3, diskSyncs)
	return nil
}

func microStream(ms *metricSet, budget time.Duration) {
	hub := stream.NewHub[engine.Delivery](streamBuffer, stream.Block, nil)
	sub := hub.Subscribe()
	done := make(chan struct{})
	go func() {
		for range sub.C() {
		}
		close(done)
	}()
	d := engine.Delivery{Msg: wire.AppMsg{ID: types.MsgID{Sender: 1, Seq: 1}, Body: make([]byte, 64)}, Instance: 1}
	ns, calls := timeLoop(budget, func() { hub.Publish(d) })
	hub.Close()
	<-done
	ms.put("stream.publish_ns_per_event", "ns", ns, calls)
}

// microRSM times the applier and the KV snapshot path on kvKeys preloaded
// keys with the KV workloads' command shape.
func microRSM(ms *metricSet, budget time.Duration, seed uint64) error {
	in := newInputs(workload{}, seed) // bodyLen 0: the KV command shape
	kv := rsm.NewKV()
	app := rsm.NewApplier(kv, rsm.Options{N: 1})
	seq := uint64(0)
	apply := func(cmd []byte) {
		seq++
		app.Apply(engine.Delivery{Msg: wire.AppMsg{ID: types.MsgID{Sender: 0, Seq: seq}, Body: cmd}, Instance: seq})
	}
	for i, key := range in.keys {
		apply(rsm.EncodePut(key, in.pool[i%len(in.pool)]))
	}
	r := rand.New(rand.NewPCG(seed, 0x72736d))
	puts := make([][]byte, 1024)
	gets := make([][]byte, 1024)
	for i := range puts {
		puts[i] = rsm.EncodePut(in.keys[r.IntN(len(in.keys))], in.pool[r.IntN(len(in.pool))])
		gets[i] = rsm.EncodeGet(in.keys[r.IntN(len(in.keys))])
	}
	i := 0
	ns, calls := timeLoop(budget, func() { apply(puts[i%len(puts)]); i++ })
	ms.put("rsm.apply_put_ns", "ns", ns, calls)
	ns, calls = timeLoop(budget, func() { apply(gets[i%len(gets)]); i++ })
	ms.put("rsm.apply_get_ns", "ns", ns, calls)

	var buf bytes.Buffer
	var serr error
	ns, calls = timeLoop(budget, func() {
		buf.Reset()
		if err := kv.Snapshot(&buf); err != nil {
			serr = err
		}
	})
	if serr != nil {
		return serr
	}
	per10k := 10000 / float64(kv.Len())
	ms.put("rsm.snapshot_ms_per_10k_keys", "ms", ns/1e6*per10k, calls)
	snap := append([]byte(nil), buf.Bytes()...)
	ns, calls = timeLoop(budget, func() {
		if err := rsm.NewKV().Restore(bytes.NewReader(snap)); err != nil {
			serr = err
		}
	})
	if serr != nil {
		return serr
	}
	ms.put("rsm.restore_ms_per_10k_keys", "ms", ns/1e6*per10k, calls)
	return nil
}
