package main

import (
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"modab"
)

// abnodeBuild holds the one abnode binary the exec tests share.
var abnodeBuild struct {
	once sync.Once
	dir  string
	out  []byte
	err  error
}

// buildAbnode compiles the abnode binary once per test run (lazily, so a
// run that selects no exec test builds nothing); TestMain removes it.
func buildAbnode(t *testing.T) string {
	t.Helper()
	b := &abnodeBuild
	b.once.Do(func() {
		if b.dir, b.err = os.MkdirTemp("", "abnode-test-"); b.err != nil {
			return
		}
		b.out, b.err = exec.Command("go", "build", "-o", filepath.Join(b.dir, "abnode"), ".").CombinedOutput()
	})
	if b.err != nil {
		t.Fatalf("go build: %v\n%s", b.err, b.out)
	}
	return filepath.Join(b.dir, "abnode")
}

func TestMain(m *testing.M) {
	code := m.Run()
	if abnodeBuild.dir != "" {
		_ = os.RemoveAll(abnodeBuild.dir) // scratch binary of a finished run
	}
	os.Exit(code)
}

// freePorts reserves n distinct loopback ports.
func freePorts(t *testing.T, n int) []string {
	t.Helper()
	addrs := make([]string, n)
	lns := make([]net.Listener, n)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatalf("reserve port: %v", err)
		}
		lns[i] = ln
		addrs[i] = ln.Addr().String()
	}
	for _, ln := range lns {
		ln.Close()
	}
	return addrs
}

// seqEntry is one parsed seqlog line.
type seqEntry struct {
	sender int32
	seq    uint64
}

// readSeqlog parses a "-seqlog" audit file, tolerating a torn final line
// (a SIGKILLed process loses its unflushed buffer tail).
func readSeqlog(t *testing.T, path string) []seqEntry {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read %s: %v", path, err)
	}
	var out []seqEntry
	lines := strings.Split(string(data), "\n")
	for i, line := range lines {
		if line == "" {
			continue
		}
		var e seqEntry
		var instance uint64
		if _, err := fmt.Sscanf(line, "%d %d %d", &e.sender, &e.seq, &instance); err != nil {
			if i >= len(lines)-2 {
				continue // torn tail from the kill
			}
			t.Fatalf("%s line %d malformed: %q", path, i+1, line)
		}
		out = append(out, e)
	}
	return out
}

// assertPrefixConsistent checks that one sequence is a prefix of the other
// (two correct processes observing the same total order, one of which
// exited earlier).
func assertPrefixConsistent(t *testing.T, name string, a, b []seqEntry) {
	t.Helper()
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			t.Fatalf("%s: order diverges at %d: %v vs %v", name, i, a[i], b[i])
		}
	}
}

// assertRecoveredOrder checks the restarted process's concatenated
// streams (both incarnations in one file) against the reference order:
// a prefix of ref, then at most one gap — the deliveries lost in the
// crash window plus whatever the dead process missed before its catch-up
// resumed — then a contiguous run of ref. No duplicates, no reordering.
func assertRecoveredOrder(t *testing.T, got, ref []seqEntry) {
	t.Helper()
	seen := make(map[seqEntry]struct{}, len(got))
	for _, e := range got {
		if _, dup := seen[e]; dup {
			t.Fatalf("restarted process delivered %v twice", e)
		}
		seen[e] = struct{}{}
	}
	refIdx := make(map[seqEntry]int, len(ref))
	for i, e := range ref {
		refIdx[e] = i
	}
	gaps := 0
	next := 0
	for i, e := range got {
		ri, ok := refIdx[e]
		if !ok {
			// The reference process may have exited before this delivery;
			// tolerate a tail the reference never saw, but only at the end.
			for _, rest := range got[i:] {
				if _, known := refIdx[rest]; known {
					t.Fatalf("delivery %v missing from the reference order mid-stream", e)
				}
			}
			break
		}
		if ri != next {
			if ri < next {
				t.Fatalf("restarted process reordered: %v at ref %d, expected ref >= %d", e, ri, next)
			}
			gaps++
			if gaps > 1 {
				t.Fatalf("restarted process's stream has %d gaps, want at most 1 (crash window)", gaps)
			}
		}
		next = ri + 1
	}
}

// TestAbnodeRestartIntegration is the TCP acceptance test of the
// crash-recovery subsystem: three real abnode processes over real TCP
// with file-backed WALs; one is SIGKILLed mid-run and restarted against
// the live pair, and the audit trails must show one consistent total
// order with the restarted process recovering into it.
func TestAbnodeRestartIntegration(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns real processes")
	}
	bin := buildAbnode(t)
	dir := t.TempDir()
	addrs := freePorts(t, 3)
	peers := strings.Join(addrs, ",")

	args := func(id int, rate float64, dur time.Duration) []string {
		return []string{
			"-id", fmt.Sprint(id),
			"-peers", peers,
			"-stack", "modular",
			"-rate", fmt.Sprint(rate),
			"-size", "64",
			"-dur", dur.String(),
			"-quiet",
			"-wal", filepath.Join(dir, fmt.Sprintf("wal%d", id)),
			"-fsync", "none",
			"-seqlog", filepath.Join(dir, fmt.Sprintf("seq%d", id)),
		}
	}

	var outs [3]strings.Builder
	procs := make([]*exec.Cmd, 3)
	for i := 0; i < 3; i++ {
		cmd := exec.Command(bin, args(i, 120, 5*time.Second)...)
		cmd.Stdout = &outs[i]
		cmd.Stderr = &outs[i]
		if err := cmd.Start(); err != nil {
			t.Fatalf("start abnode %d: %v", i, err)
		}
		procs[i] = cmd
	}

	// Let the group order traffic, then kill p3 hard mid-run.
	time.Sleep(2500 * time.Millisecond)
	if err := procs[2].Process.Kill(); err != nil {
		t.Fatalf("kill: %v", err)
	}
	_ = procs[2].Wait()

	// Restart it against the live pair with the same WAL and audit file;
	// listen-only, long enough to catch up and observe the pair's tail.
	time.Sleep(300 * time.Millisecond)
	var restartOut strings.Builder
	restarted := exec.Command(bin, args(2, 0, 3*time.Second)...)
	restarted.Stdout = &restartOut
	restarted.Stderr = &restartOut
	if err := restarted.Start(); err != nil {
		t.Fatalf("restart abnode 2: %v", err)
	}

	for i := 0; i < 2; i++ {
		if err := procs[i].Wait(); err != nil {
			t.Fatalf("abnode %d: %v\n%s", i, err, outs[i].String())
		}
	}
	if err := restarted.Wait(); err != nil {
		t.Fatalf("restarted abnode 2: %v\n%s", err, restartOut.String())
	}
	if !strings.Contains(restartOut.String(), "recoveries=1") {
		t.Errorf("restarted process reported no recovery:\n%s", restartOut.String())
	}

	seq0 := readSeqlog(t, filepath.Join(dir, "seq0"))
	seq1 := readSeqlog(t, filepath.Join(dir, "seq1"))
	seq2 := readSeqlog(t, filepath.Join(dir, "seq2"))
	if len(seq0) == 0 || len(seq1) == 0 || len(seq2) == 0 {
		t.Fatalf("empty audit trails: %d/%d/%d", len(seq0), len(seq1), len(seq2))
	}
	assertPrefixConsistent(t, "p1 vs p2", seq0, seq1)
	ref := seq0
	if len(seq1) > len(ref) {
		ref = seq1
	}
	assertRecoveredOrder(t, seq2, ref)
}

// TestAbnodeJoinIntegration is the TCP acceptance test of dynamic
// membership: a three-process boot group orders traffic, then a fourth
// abnode starts with -join, self-requests admission through a sponsor,
// catches up through state transfer, and contributes its own messages.
// The boot group's audit trails must show one consistent total order
// from instance 1; the joiner's trail starts at its admitting view
// (config-at-k, not history — the pre-join past arrives as state, not
// deliveries) and from there must be a gap-free dup-free run of the
// reference order.
func TestAbnodeJoinIntegration(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns real processes")
	}
	bin := buildAbnode(t)
	dir := t.TempDir()
	addrs := freePorts(t, 4)
	bootPeers := strings.Join(addrs[:3], ",")
	allPeers := strings.Join(addrs, ",")

	args := func(id int, peers string, rate float64, dur time.Duration, extra ...string) []string {
		base := []string{
			"-id", fmt.Sprint(id),
			"-peers", peers,
			"-stack", "monolithic",
			"-rate", fmt.Sprint(rate),
			"-size", "64",
			"-dur", dur.String(),
			"-quiet",
			"-wal", filepath.Join(dir, fmt.Sprintf("wal%d", id)),
			"-fsync", "none",
			"-seqlog", filepath.Join(dir, fmt.Sprintf("seq%d", id)),
		}
		return append(base, extra...)
	}

	var outs [3]strings.Builder
	procs := make([]*exec.Cmd, 3)
	for i := 0; i < 3; i++ {
		cmd := exec.Command(bin, args(i, bootPeers, 60, 8*time.Second)...)
		cmd.Stdout = &outs[i]
		cmd.Stderr = &outs[i]
		if err := cmd.Start(); err != nil {
			t.Fatalf("start abnode %d: %v", i, err)
		}
		procs[i] = cmd
	}

	// Let the boot group order traffic before the joiner shows up.
	time.Sleep(2500 * time.Millisecond)
	var joinOut strings.Builder
	joiner := exec.Command(bin, args(3, allPeers, 40, 3*time.Second, "-join", "-sponsor", "0")...)
	joiner.Stdout = &joinOut
	joiner.Stderr = &joinOut
	if err := joiner.Start(); err != nil {
		t.Fatalf("start joiner: %v", err)
	}
	if err := joiner.Wait(); err != nil {
		t.Fatalf("joiner: %v\n%s", err, joinOut.String())
	}
	for i := 0; i < 3; i++ {
		if err := procs[i].Wait(); err != nil {
			t.Fatalf("abnode %d: %v\n%s", i, err, outs[i].String())
		}
	}
	if !strings.Contains(joinOut.String(), "admitted") {
		t.Fatalf("joiner never reported admission:\n%s", joinOut.String())
	}

	seqs := make([][]seqEntry, 4)
	for i := range seqs {
		seqs[i] = readSeqlog(t, filepath.Join(dir, fmt.Sprintf("seq%d", i)))
		if len(seqs[i]) == 0 {
			t.Fatalf("p%d has an empty audit trail", i)
		}
	}
	for i := 1; i < 3; i++ {
		assertPrefixConsistent(t, fmt.Sprintf("p0 vs p%d", i), seqs[0], seqs[i])
	}
	// The joiner's stream aligns mid-reference (one leading "gap": the
	// pre-join history it received as state) and runs contiguously after.
	ref := seqs[0]
	if len(seqs[1]) > len(ref) {
		ref = seqs[1]
	}
	assertRecoveredOrder(t, seqs[3], ref)
	// The joiner's own messages must have been ordered at the boot group.
	joinerSent := false
	for _, e := range seqs[0] {
		if e.sender == 3 {
			joinerSent = true
			break
		}
	}
	if !joinerSent {
		t.Fatalf("no joiner-originated message in the reference order")
	}
}

// TestAbnodeKVHTTP spins up a three-process group serving the
// replicated KV over HTTP — with digest ordering on, so every command
// travels once as an announced payload batch and consensus orders
// descriptors — and exercises the full surface end to end: put/get/CAS/
// delete with read-your-writes at the submitting node, and an ordered
// cross-node read observing a write accepted elsewhere.
func TestAbnodeKVHTTP(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns real processes")
	}
	bin := buildAbnode(t)
	addrs := freePorts(t, 6)
	peers := strings.Join(addrs[:3], ",")
	kvAddrs := addrs[3:]

	var outs [3]strings.Builder
	procs := make([]*exec.Cmd, 3)
	for i := 0; i < 3; i++ {
		cmd := exec.Command(bin,
			"-id", fmt.Sprint(i),
			"-peers", peers,
			"-stack", "monolithic",
			"-rate", "0",
			"-dur", "20s",
			"-quiet",
			"-kv", kvAddrs[i],
			"-snapshot-every", "8",
			"-batch-msgs", "4",
			"-batch-delay", "2ms",
			"-digest",
		)
		cmd.Stdout = &outs[i]
		cmd.Stderr = &outs[i]
		if err := cmd.Start(); err != nil {
			t.Fatalf("start abnode %d: %v", i, err)
		}
		procs[i] = cmd
		defer func() { _ = cmd.Process.Signal(syscall.SIGTERM); _ = cmd.Wait() }()
	}

	client := &http.Client{Timeout: 15 * time.Second}
	req := func(method, node, key, body string, hdr map[string]string) (int, string) {
		t.Helper()
		var rd io.Reader
		if body != "" {
			rd = strings.NewReader(body)
		}
		r, err := http.NewRequest(method, "http://"+node+"/kv/"+key, rd)
		if err != nil {
			t.Fatal(err)
		}
		for k, v := range hdr {
			r.Header.Set(k, v)
		}
		resp, err := client.Do(r)
		if err != nil {
			t.Fatalf("%s %s: %v", method, key, err)
		}
		defer resp.Body.Close()
		data, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(data)
	}

	// Wait for the HTTP front ends to come up and the group to order the
	// first command.
	deadline := time.Now().Add(15 * time.Second)
	for {
		r, err := http.NewRequest(http.MethodPut, "http://"+kvAddrs[0]+"/kv/boot", strings.NewReader("1"))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := client.Do(r)
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusNoContent {
				break
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("KV front end never came up: %v\n%s", err, outs[0].String())
		}
		time.Sleep(200 * time.Millisecond)
	}

	if code, _ := req(http.MethodPut, kvAddrs[0], "color", "blue", nil); code != http.StatusNoContent {
		t.Fatalf("put: %d", code)
	}
	if code, body := req(http.MethodGet, kvAddrs[0], "color", "", nil); code != http.StatusOK || body != "blue" {
		t.Fatalf("read-your-writes get = (%d, %q)", code, body)
	}
	// Ordered read at a different node than the writer.
	if code, body := req(http.MethodGet, kvAddrs[1], "color", "", nil); code != http.StatusOK || body != "blue" {
		t.Fatalf("cross-node get = (%d, %q)", code, body)
	}
	// CAS: wrong expectation rejected, right one applied.
	if code, _ := req(http.MethodPut, kvAddrs[2], "color", "green", map[string]string{"If-Match": "red"}); code != http.StatusPreconditionFailed {
		t.Fatalf("CAS wrong old = %d, want 412", code)
	}
	if code, _ := req(http.MethodPut, kvAddrs[2], "color", "green", map[string]string{"If-Match": "blue"}); code != http.StatusNoContent {
		t.Fatalf("CAS right old = %d, want 204", code)
	}
	if code, body := req(http.MethodGet, kvAddrs[0], "color", "", nil); code != http.StatusOK || body != "green" {
		t.Fatalf("get after CAS = (%d, %q)", code, body)
	}
	// Local (stale-tolerant) read hits the replica directly.
	if code, body := req(http.MethodGet, kvAddrs[0], "color?local=1", "", nil); code != http.StatusOK || body != "green" {
		t.Fatalf("local get = (%d, %q)", code, body)
	}
	// Delete, then both flavors of missing.
	if code, _ := req(http.MethodDelete, kvAddrs[1], "color", "", nil); code != http.StatusNoContent {
		t.Fatalf("delete = %d", code)
	}
	if code, _ := req(http.MethodGet, kvAddrs[1], "color", "", nil); code != http.StatusNotFound {
		t.Fatalf("get after delete = %d, want 404", code)
	}
	if code, _ := req(http.MethodDelete, kvAddrs[1], "color", "", nil); code != http.StatusNotFound {
		t.Fatalf("delete missing = %d, want 404", code)
	}
}

// lockedBuf is a concurrency-safe output sink: the metrics test reads a
// node's stdout while the process is still writing to it.
type lockedBuf struct {
	mu sync.Mutex
	b  strings.Builder
}

func (l *lockedBuf) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.Write(p)
}

func (l *lockedBuf) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.String()
}

// TestAbnodeMetricsHTTP runs a loaded three-process group with the
// observability endpoint enabled on one node and scrapes it mid-load:
// Prometheus /metrics (counters and latency histograms, with deliveries
// actually counted), expvar /debug/vars, and a one-second CPU profile
// from /debug/pprof/profile.
func TestAbnodeMetricsHTTP(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns real processes")
	}
	bin := buildAbnode(t)
	addrs := freePorts(t, 3)
	peers := strings.Join(addrs, ",")

	outs := make([]*lockedBuf, 3)
	procs := make([]*exec.Cmd, 3)
	for i := 0; i < 3; i++ {
		args := []string{
			"-id", fmt.Sprint(i),
			"-peers", peers,
			"-stack", "monolithic",
			"-rate", "150",
			"-size", "64",
			"-dur", "15s",
			"-quiet",
		}
		if i == 0 {
			args = append(args, "-metrics", "127.0.0.1:0")
		}
		outs[i] = &lockedBuf{}
		cmd := exec.Command(bin, args...)
		cmd.Stdout = outs[i]
		cmd.Stderr = outs[i]
		if err := cmd.Start(); err != nil {
			t.Fatalf("start abnode %d: %v", i, err)
		}
		procs[i] = cmd
		defer func() { _ = cmd.Process.Signal(syscall.SIGTERM); _ = cmd.Wait() }()
	}

	// The bound metrics address is printed at startup:
	// "p0 serving metrics at http://ADDR/metrics".
	var base string
	deadline := time.Now().Add(10 * time.Second)
	for base == "" {
		if time.Now().After(deadline) {
			t.Fatalf("metrics address never printed:\n%s", outs[0].String())
		}
		out := outs[0].String()
		if i := strings.Index(out, "http://"); i >= 0 {
			rest := out[i+len("http://"):]
			if j := strings.Index(rest, "/metrics"); j >= 0 {
				base = "http://" + rest[:j]
			}
		}
		if base == "" {
			time.Sleep(100 * time.Millisecond)
		}
	}

	client := &http.Client{Timeout: 15 * time.Second}
	get := func(path string) (int, string) {
		t.Helper()
		resp, err := client.Get(base + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		data, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(data)
	}

	// Scrape /metrics until the group has ordered traffic: the adeliver
	// counter and the deliver-latency histogram must both be live.
	deadline = time.Now().Add(12 * time.Second)
	for {
		code, body := get("/metrics")
		if code != http.StatusOK {
			t.Fatalf("GET /metrics = %d", code)
		}
		for _, want := range []string{
			"# TYPE modab_a_deliver counter",
			"modab_deliver_latency_seconds_bucket",
			"modab_deliver_latency_seconds_count",
			"modab_trace_sample_every",
		} {
			if !strings.Contains(body, want) {
				t.Fatalf("/metrics lacks %q:\n%s", want, body)
			}
		}
		var adeliver int64
		for _, line := range strings.Split(body, "\n") {
			if _, err := fmt.Sscanf(line, "modab_a_deliver %d", &adeliver); err == nil {
				break
			}
		}
		if adeliver > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("modab_a_deliver never went positive under load:\n%s", body)
		}
		time.Sleep(200 * time.Millisecond)
	}

	if code, body := get("/debug/vars"); code != http.StatusOK ||
		!strings.Contains(body, `"modab"`) || !strings.Contains(body, "counters") {
		t.Fatalf("GET /debug/vars = %d, want modab counters var:\n%s", code, body)
	}

	// One-second CPU profile while the group is still ordering load.
	if code, body := get("/debug/pprof/profile?seconds=1"); code != http.StatusOK || len(body) == 0 {
		t.Fatalf("GET /debug/pprof/profile = (%d, %d bytes)", code, len(body))
	}
}

// TestAbnodeGracefulSignal: SIGTERM mid-run exits cleanly (WAL flushed,
// stream drained, summary printed) instead of dying mid-write.
func TestAbnodeGracefulSignal(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns real processes")
	}
	bin := buildAbnode(t)
	dir := t.TempDir()
	addrs := freePorts(t, 1)

	var out strings.Builder
	cmd := exec.Command(bin,
		"-id", "0",
		"-peers", addrs[0],
		"-stack", "monolithic",
		"-rate", "100",
		"-size", "32",
		"-dur", "30s",
		"-quiet",
		"-wal", filepath.Join(dir, "wal0"),
		"-fsync", "interval",
		"-seqlog", filepath.Join(dir, "seq0"),
	)
	cmd.Stdout = &out
	cmd.Stderr = &out
	if err := cmd.Start(); err != nil {
		t.Fatalf("start: %v", err)
	}
	time.Sleep(2 * time.Second)
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatalf("signal: %v", err)
	}
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("exit after SIGTERM: %v\n%s", err, out.String())
		}
	case <-time.After(10 * time.Second):
		_ = cmd.Process.Kill()
		t.Fatalf("no exit within 10s of SIGTERM:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "graceful shutdown complete") {
		t.Errorf("missing graceful-shutdown marker:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "summary:") {
		t.Errorf("missing summary after signal:\n%s", out.String())
	}
	// The flushed WAL must replay cleanly: a follow-up listen-only run on
	// the same directory recovers instead of starting fresh.
	var out2 strings.Builder
	cmd2 := exec.Command(bin,
		"-id", "0", "-peers", addrs[0], "-stack", "monolithic",
		"-rate", "0", "-dur", "500ms", "-quiet",
		"-wal", filepath.Join(dir, "wal0"), "-fsync", "none",
	)
	cmd2.Stdout = &out2
	cmd2.Stderr = &out2
	if err := cmd2.Run(); err != nil {
		t.Fatalf("rerun on flushed WAL: %v\n%s", err, out2.String())
	}
	if !strings.Contains(out2.String(), "recoveries=1") {
		t.Errorf("rerun did not recover from the WAL:\n%s", out2.String())
	}
}

// TestAbnodeOwnDeliveryOvertakesAbcast: in a group of one, an own
// delivery often reaches the consumer before Abcast has returned the
// message's ID. Every such message must still be matched, so the drain
// finds nothing outstanding and the run exits right after -dur, with a
// latency sample for every message sent.
func TestAbnodeOwnDeliveryOvertakesAbcast(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns a real process")
	}
	bin := buildAbnode(t)
	const dur = 2 * time.Second
	cmd := exec.Command(bin, "-id", "0", "-peers", "127.0.0.1:0",
		"-rate", "5000", "-size", "64", "-dur", dur.String(), "-quiet")
	start := time.Now()
	out, err := cmd.CombinedOutput()
	elapsed := time.Since(start)
	if err != nil {
		t.Fatalf("abnode: %v\n%s", err, out)
	}
	// One second of waiting for peers, -dur of injection, then the drain.
	if limit := dur + 3*time.Second; elapsed > limit {
		t.Errorf("run took %v, want at most %v: the drain waited on matched deliveries\n%s", elapsed, limit, out)
	}
	var sent, delivered, n int
	var rate float64
	for _, line := range strings.Split(string(out), "\n") {
		if _, after, ok := strings.Cut(line, "summary: "); ok {
			fmt.Sscanf(after, "sent=%d delivered=%d (%f", &sent, &delivered, &rate)
		}
		if _, after, ok := strings.Cut(line, "(n="); ok {
			fmt.Sscanf(after, "%d)", &n)
		}
	}
	if sent == 0 || delivered != sent || n != sent {
		t.Fatalf("sent=%d delivered=%d latency n=%d, want all equal and nonzero\n%s", sent, delivered, n, out)
	}
}

// TestDropslowReachesSubscription: -dropslow is an option of abnode's own
// delivery subscription. An undrained one-slot subscription built from
// deliveryOptions(true) must shed deliveries (counted in StreamDropped)
// while the protocol keeps ordering, instead of backpressuring it.
func TestDropslowReachesSubscription(t *testing.T) {
	if opts := deliveryOptions(false); len(opts) != 0 {
		t.Fatalf("default subscription carries %d options", len(opts))
	}
	cluster, err := modab.New(3, modab.Modular)
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	sub := cluster.Deliveries(append(deliveryOptions(true), modab.StreamBuffer(1))...)
	defer sub.Close()
	const msgs = 8
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	for i := 0; i < msgs; i++ {
		if _, err := cluster.Abcast(ctx, 0, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	for cluster.Stats().Total.ADeliver < 3*msgs {
		select {
		case <-ctx.Done():
			t.Fatalf("adelivered %d, want %d", cluster.Stats().Total.ADeliver, 3*msgs)
		case <-time.After(5 * time.Millisecond):
		}
	}
	if cluster.Stats().Total.StreamDropped == 0 {
		t.Fatal("an undrained drop-policy subscription dropped nothing")
	}
}

// TestOpenSeqlogCutsTornTail: a SIGKILLed incarnation left "1 " behind;
// the restarted one must append whole lines after the last complete one
// instead of extending the torn line into "1 0 2 2".
func TestOpenSeqlogCutsTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "seq")
	if err := os.WriteFile(path, []byte("0 1 1\n1 "), 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := openSeqlog(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString("0 2 2\n"); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if got, _ := os.ReadFile(path); string(got) != "0 1 1\n0 2 2\n" {
		t.Fatalf("seqlog after reopen = %q", got)
	}
}
