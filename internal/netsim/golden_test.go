package netsim

import (
	"fmt"
	"hash/fnv"
	"testing"
	"time"

	"modab/internal/batch"
	"modab/internal/dissem"
	"modab/internal/engine"
	"modab/internal/types"
)

// goldenScenario is one deterministic simulated run whose full observable
// behavior — the delivery sequence at every process plus the byte-exact
// wire and dispatch counters — is pinned by a recorded fingerprint.
//
// The fingerprints were captured from the pre-pipelining engines (every
// consensus instance strictly sequential). The pipelined refactor must
// reproduce them bit-for-bit at pipeline depth 1: same deliveries in the
// same order, same messages, same bytes on the wire, same dispatch
// counts. Any divergence means depth-1 operation is not the exact
// sequential protocol the paper measured.
type goldenScenario struct {
	name string
	n    int
	seed int64
	load float64
	size int
	// crash, when >= 0, crash-stops that process at crashAt.
	crash   int
	crashAt time.Duration
	// restart re-enables the crashed process at restartAt on a durable
	// cluster (crash-recovery model).
	restart   bool
	restartAt time.Duration
	// partition, when set, symmetrically cuts both directions between the
	// two processes during [partFrom, partTo) — the link-fault subsystem's
	// pinned scenario (recorded when the subsystem landed; the chaos-free
	// scenarios above must stay bit-for-bit on their pre-fault
	// fingerprints).
	partition        bool
	partA, partB     int
	partFrom, partTo time.Duration
	// ring runs the scenario with engine.DefaultConfig(n) plus
	// Dissemination=Ring, pinning the successor-relay order (the
	// ring-free scenarios run the zero config and stay on their original
	// AllToAll fingerprints untouched).
	ring bool
	// digest runs the scenario with engine.DefaultConfig(n) plus
	// DigestOrdering and an 8-message sender batch, pinning the
	// announce/descriptor split (the digest-free scenarios run with the
	// feature off and stay on their original fingerprints untouched).
	// Together with ring the announces relay successor-to-successor;
	// unbatched drops the sender batch, so each message is its own
	// announced batch.
	digest    bool
	unbatched bool
}

// goldenScenarios is the pinned scenario matrix: good runs at both group
// sizes, a round-1 coordinator crash (p0 coordinates round 1 of every
// instance), and a durable crash+restart.
var goldenScenarios = []goldenScenario{
	{name: "good/n=3", n: 3, seed: 42, load: 1500, size: 128, crash: -1},
	{name: "good/n=7", n: 7, seed: 7, load: 2100, size: 64, crash: -1},
	{name: "coordcrash/n=3", n: 3, seed: 5, load: 1200, size: 64, crash: 0, crashAt: 500 * time.Millisecond},
	{name: "restart/n=3", n: 3, seed: 11, load: 1500, size: 128, crash: 1, crashAt: 500 * time.Millisecond,
		restart: true, restartAt: 1200 * time.Millisecond},
	{name: "partition/n=3", n: 3, seed: 13, load: 1200, size: 64, crash: -1,
		partition: true, partA: 0, partB: 2, partFrom: 400 * time.Millisecond, partTo: 900 * time.Millisecond},
	// Ring-dissemination matrix: good runs at two group sizes plus a cut
	// ring edge (0→1 is p0's successor link), pinning the relay order so
	// future refactors can't silently change it.
	{name: "ring/n=3", n: 3, seed: 42, load: 1500, size: 128, crash: -1, ring: true},
	{name: "ring/n=5", n: 5, seed: 9, load: 1800, size: 96, crash: -1, ring: true},
	// The cut is the ring's first relay edge (p0→p1), so p1 hears no
	// proposals at all until the heal; the load and cut length are sized
	// so its decision gap stays inside the non-durable DecisionHorizon
	// (the chaos ring-cut family covers longer cuts on durable clusters,
	// where the log serves pruned decisions).
	{name: "ring-partition/n=3", n: 3, seed: 13, load: 300, size: 64, crash: -1, ring: true,
		partition: true, partA: 0, partB: 1, partFrom: 400 * time.Millisecond, partTo: 650 * time.Millisecond},
	// Digest-ordering matrix: a good run (announce + descriptor consensus
	// in steady state) and a partition between the two non-coordinator
	// processes (decided descriptors arrive before their payload on the
	// far side, exercising the blocked-head delivery and the late-announce
	// retirement), pinning the split's wire behavior bit-for-bit.
	{name: "digest/n=3", n: 3, seed: 42, load: 1500, size: 128, crash: -1, digest: true},
	{name: "digest-partition/n=3", n: 3, seed: 13, load: 900, size: 64, crash: -1, digest: true,
		partition: true, partA: 1, partB: 2, partFrom: 400 * time.Millisecond, partTo: 800 * time.Millisecond},
	// Shared-head matrix (recorded on the engines' private copies, before
	// internal/head replaced them): a relayed announce (the dissem.Accept +
	// forward path), each message as its own announced batch, and a durable
	// crash + restart under digest ordering (regrouped backlog,
	// re-announce).
	{name: "ring-digest/n=3", n: 3, seed: 42, load: 1500, size: 128, crash: -1, ring: true, digest: true},
	{name: "digest-unbatched/n=3", n: 3, seed: 42, load: 1500, size: 128, crash: -1, digest: true, unbatched: true},
	{name: "digest-restart/n=3", n: 3, seed: 11, load: 1500, size: 128, crash: 1, crashAt: 500 * time.Millisecond,
		restart: true, restartAt: 1200 * time.Millisecond, digest: true},
}

// goldenFingerprints maps scenario/stack to the recorded pre-pipelining
// fingerprint (see goldenScenario). To regenerate, empty this map, run
//
//	go test ./internal/netsim -run TestGoldenTraces -v
//
// and copy the logged GOLDEN lines back — but only when a deliberate
// wire- or schedule-visible protocol change is being made; say so in the
// commit.
var goldenFingerprints = map[string]string{
	"good/n=3/modular":          "p0{del=2684 sent=4740 B=1125272 disp=7480 cons=685/685} p1{del=2684 sent=3739 B=291074 disp=6110 cons=1/685} p2{del=2684 sent=2369 B=255454 disp=6795 cons=1/685} order=42e8c2506f31c70c",
	"good/n=3/monolithic":       "p0{del=3000 sent=3604 B=972086 disp=4604 cons=1801/1801} p1{del=3000 sent=1802 B=174634 disp=2802 cons=0/1801} p2{del=3000 sent=1802 B=174634 disp=2802 cons=0/1801} order=d175104a3a0dbf60",
	"good/n=7/modular":          "p0{del=1639 sent=5916 B=1034952 disp=5917 cons=329/329} p1{del=1639 sent=3617 B=163678 disp=3943 cons=1/329} p2{del=1639 sent=3611 B=163186 disp=3943 cons=1/329} p3{del=1639 sent=3617 B=163678 disp=3943 cons=1/329} p4{del=1639 sent=1643 B=112354 disp=4272 cons=1/329} p5{del=1639 sent=1637 B=111862 disp=4272 cons=1/329} p6{del=1639 sent=1637 B=111862 disp=4272 cons=1/329} order=63e0891ab3a8ba52",
	"good/n=7/monolithic":       "p0{del=2987 sent=4788 B=1577298 disp=5385 cons=797/797} p1{del=2987 sent=798 B=46046 disp=1204 cons=0/797} p2{del=2987 sent=797 B=46029 disp=1204 cons=0/797} p3{del=2987 sent=798 B=46046 disp=1204 cons=0/797} p4{del=2987 sent=798 B=44686 disp=1187 cons=0/797} p5{del=2987 sent=797 B=44749 disp=1188 cons=0/797} p6{del=2987 sent=797 B=44749 disp=1188 cons=0/797} order=9abff4015fa86255",
	"coordcrash/n=3/modular":    "p0{del=596 sent=1138 B=144868 disp=1886 cons=185/184} p1{del=1722 sent=4043 B=358378 disp=5387 cons=390/574} p2{del=1722 sent=3675 B=169280 disp=4791 cons=390/574} order=5cc46d5530af63ec",
	"coordcrash/n=3/monolithic": "p0{del=597 sent=910 B=122640 disp=1103 cons=445/444} p1{del=1723 sent=3262 B=259704 disp=2898 cons=560/1005} p2{del=1723 sent=2694 B=154928 disp=2338 cons=0/1005} order=4f965e8252b2740e",
	// The restart fingerprints were re-recorded when recover responses
	// gained the SnapIndex field (snapshot state transfer): responses are 8
	// bytes larger on the wire, with identical delivery orders.
	"restart/n=3/modular":    "p0{del=2432 sent=5394 B=1076824 disp=7578 cons=848/848} p1{del=2432 sent=2429 B=186526 disp=3973 cons=2/448} p2{del=2432 sent=2657 B=386490 disp=7141 cons=2/848} order=9e3fd0ad53a3d1e3",
	"restart/n=3/monolithic": "p0{del=2640 sent=3609 B=874124 disp=3973 cons=1799/1799} p1{del=2640 sent=1192 B=113717 disp=1834 cons=0/1799} p2{del=2640 sent=1821 B=285985 disp=2824 cons=0/1799} order=61acde73bb09578b",
	// The partition fingerprints were re-recorded when the three decision
	// fetch policies became one in the round core (ct.Table.Want and
	// RetryFetch): the fetch timer now fires instead of being pushed back
	// by every announcement, and a gap instance is asked once per resend
	// period instead of once per announcement.
	"partition/n=3/modular":    "p0{del=1889 sent=4201 B=501314 disp=6972 cons=665/665} p1{del=1889 sent=3677 B=204278 disp=5629 cons=2/665} p2{del=1889 sent=2444 B=129087 disp=6280 cons=191/665} order=d38226d25c54e020",
	"partition/n=3/monolithic": "p0{del=1975 sent=3519 B=421377 disp=4226 cons=1549/1549} p1{del=1975 sent=2127 B=128265 disp=2858 cons=0/1549} p2{del=1975 sent=2174 B=216310 disp=2711 cons=0/1549} order=9895c363e6ac0eb5",
	// Ring-dissemination fingerprints (recorded when the dissemination
	// seam landed). Note the monolithic coordinator's send count halving
	// versus its all-to-all golden — the relay offload at work.
	"ring/n=3/modular":              "p0{del=2688 sent=4601 B=1129976 disp=7512 cons=689/689} p1{del=2688 sent=3910 B=340354 disp=6134 cons=1/689} p2{del=2688 sent=2377 B=279726 disp=6823 cons=1/689} order=3a390ad85a6764e8",
	"ring/n=3/monolithic":           "p0{del=3000 sent=1753 B=510821 disp=4504 cons=1751/1751} p1{del=3000 sent=3503 B=684579 disp=2752 cons=0/1751} p2{del=3000 sent=1752 B=173784 disp=2752 cons=0/1751} order=288ca4b7ace98886",
	"ring/n=5/modular":              "p0{del=2272 sent=5193 B=1328944 disp=6443 cons=417/417} p1{del=2272 sent=3942 B=286902 disp=4775 cons=1/417} p2{del=2272 sent=3942 B=286902 disp=4775 cons=1/417} p3{del=2272 sent=2273 B=243406 disp=5192 cons=1/417} p4{del=2272 sent=2078 B=218446 disp=5192 cons=1/417} order=7ab907290812dc0c",
	"ring/n=5/monolithic":           "p0{del=3600 sent=1085 B=451897 disp=5047 cons=1081/1081} p1{del=3600 sent=2162 B=550862 disp=1802 cons=0/1081} p2{del=3600 sent=2163 B=550879 disp=1802 cons=0/1081} p3{del=3600 sent=2163 B=550879 disp=1802 cons=0/1081} p4{del=3600 sent=1082 B=99034 disp=1802 cons=0/1081} order=c96b408699c69e34",
	"ring-partition/n=3/modular":    "p0{del=566 sent=2651 B=178888 disp=4679 cons=560/560} p1{del=566 sent=2219 B=83030 disp=3289 cons=491/560} p2{del=566 sent=1054 B=55216 disp=4079 cons=371/560} order=abda69b561df9d41",
	"ring-partition/n=3/monolithic": "p0{del=535 sent=1595 B=83391 disp=1664 cons=526/526} p1{del=535 sent=1302 B=86778 disp=1202 cons=0/526} p2{del=535 sent=753 B=31761 disp=1319 cons=0/526} order=ffc69bbaa6a7739a",
	// Digest-ordering fingerprints (recorded when the
	// dissemination/ordering split landed). Note the bytes-sent drop versus
	// the matching payload-mode goldens at the same seed and load: payloads
	// cross the wire once as announces while consensus frames carry only
	// descriptors.
	"digest/n=3/modular":              "p0{del=3000 sent=4294 B=490748 disp=8266 cons=823/823} p1{del=3000 sent=3473 B=376454 disp=6620 cons=6/823} p2{del=3000 sent=1825 B=333590 disp=7443 cons=6/823} order=e5561d2e0be487c",
	"digest/n=3/monolithic":           "p0{del=3000 sent=4254 B=511474 disp=5379 cons=1256/1256} p1{del=3000 sent=2875 B=378125 disp=3631 cons=0/1256} p2{del=3000 sent=2633 B=366025 disp=3752 cons=0/1256} order=a785d585116eed0c",
	"digest-partition/n=3/modular":    "p0{del=642 sent=2050 B=143028 disp=8059 cons=377/377} p1{del=642 sent=6054 B=650720 disp=4636 cons=3/377} p2{del=642 sent=5100 B=549116 disp=5103 cons=3/377} order=7df8e679e06c01b6",
	"digest-partition/n=3/monolithic": "p0{del=1800 sent=4574 B=392498 disp=5175 cons=1512/1512} p1{del=1800 sent=2871 B=183911 disp=3454 cons=0/1512} p2{del=1800 sent=2904 B=184208 disp=3520 cons=0/1512} order=b5e0512a4f48d0f",
	// Shared-head fingerprints (recorded at the parent of the internal/head
	// extraction, on the engines' private admission/announce/relay code).
	"ring-digest/n=3/modular":         "p0{del=3000 sent=4275 B=513376 disp=8199 cons=798/798} p1{del=3000 sent=3422 B=390012 disp=6603 cons=6/798} p2{del=3000 sent=1911 B=352596 disp=7401 cons=6/798} order=edcaa544b055e70e",
	"ring-digest/n=3/monolithic":      "p0{del=3000 sent=4552 B=545364 disp=5443 cons=1439/1439} p1{del=3000 sent=2723 B=388220 disp=3833 cons=0/1439} p2{del=3000 sent=2831 B=393562 disp=3830 cons=0/1439} order=d925ae2473f83c8c",
	"digest-unbatched/n=3/modular":    "p0{del=2684 sent=4740 B=588056 disp=7480 cons=685/685} p1{del=2684 sent=3739 B=344962 disp=6110 cons=1/685} p2{del=2684 sent=2369 B=309342 disp=6795 cons=1/685} order=9c5b67a671b5624e",
	"digest-unbatched/n=3/monolithic": "p0{del=3000 sent=4628 B=626806 disp=5628 cons=1313/1313} p1{del=3000 sent=3314 B=410338 disp=4314 cons=0/1313} p2{del=3000 sent=3314 B=410338 disp=4314 cons=0/1313} order=c835f68afba00b38",
	"digest-restart/n=3/modular":      "p0{del=2646 sent=4772 B=502588 disp=8125 cons=934/934} p1{del=2646 sent=2284 B=244664 disp=4300 cons=58/535} p2{del=2646 sent=2001 B=449866 disp=7601 cons=61/934} order=4ce301b7af8d681a",
	"digest-restart/n=3/monolithic":   "p0{del=2649 sent=4445 B=517810 disp=4705 cons=1172/1172} p1{del=2649 sent=1847 B=246149 disp=2430 cons=0/1172} p2{del=2649 sent=2948 B=489621 disp=3651 cons=0/1172} order=ba6ad9cede8d9b7b",
}

// config is engine.DefaultConfig(n) plus the scenario's ring and digest
// options.
func (s goldenScenario) config() engine.Config {
	cfg := engine.DefaultConfig(s.n)
	if s.ring {
		cfg.Dissemination = dissem.Ring
	}
	if s.digest {
		cfg.DigestOrdering = true
		if !s.unbatched {
			cfg.Batch = batch.Config{MaxMsgs: 8, MaxDelay: 2 * time.Millisecond}
		}
	}
	return cfg
}

// fingerprint runs the scenario and folds every process's delivery
// sequence and counters into one comparable string.
func (s goldenScenario) fingerprint(t *testing.T, stk types.Stack, cfg engine.Config) string {
	t.Helper()
	seqs := make([][]types.MsgID, s.n)
	c, err := NewCluster(Options{
		N:       s.n,
		Stack:   stk,
		Engine:  cfg,
		Seed:    s.seed,
		Durable: s.restart,
		OnDeliver: func(p types.ProcessID, d engine.Delivery, _ time.Duration) {
			seqs[p] = append(seqs[p], d.Msg.ID)
		},
	})
	if err != nil {
		t.Fatalf("NewCluster: %v", err)
	}
	InstallWorkload(c, Workload{OfferedLoad: s.load, Size: s.size, End: 2 * time.Second}, nil)
	if s.partition {
		c.Partition(types.ProcessID(s.partA), types.ProcessID(s.partB), s.partFrom, s.partTo)
	}
	if s.crash >= 0 {
		c.Crash(types.ProcessID(s.crash), s.crashAt)
		if s.restart {
			c.Restart(types.ProcessID(s.crash), s.restartAt)
		}
	}
	c.Run(3 * time.Second)
	c.RunIdle(30 * time.Second)
	for _, err := range c.Errs() {
		t.Errorf("engine error: %v", err)
	}
	h := fnv.New64a()
	for p := 0; p < s.n; p++ {
		for _, id := range seqs[p] {
			fmt.Fprintf(h, "%d:%s;", p, id)
		}
	}
	var out string
	for p := 0; p < s.n; p++ {
		snap := c.Counters(types.ProcessID(p))
		out += fmt.Sprintf("p%d{del=%d sent=%d B=%d disp=%d cons=%d/%d} ",
			p, len(seqs[p]), snap.MsgsSent, snap.BytesSent, snap.Dispatches,
			snap.ConsensusStarted, snap.ConsensusDecided)
	}
	return fmt.Sprintf("%sorder=%x", out, h.Sum64())
}

// TestGoldenTraces pins the depth-1 behavior of both stacks to the
// recorded pre-pipelining fingerprints, for the default configuration.
func TestGoldenTraces(t *testing.T) {
	for _, sc := range goldenScenarios {
		for _, stk := range []types.Stack{types.Modular, types.Monolithic} {
			sc, stk := sc, stk
			t.Run(sc.name+"/"+stk.String(), func(t *testing.T) {
				var cfg engine.Config // zero: netsim applies DefaultConfig(n)
				if sc.ring || sc.digest {
					cfg = sc.config()
				}
				got := sc.fingerprint(t, stk, cfg)
				key := sc.name + "/" + stk.String()
				want, ok := goldenFingerprints[key]
				if !ok {
					t.Logf("GOLDEN %q: %q,", key, got)
					t.Fatalf("no golden recorded for %s", key)
				}
				if got != want {
					t.Errorf("trace diverged from the sequential golden:\n got %s\nwant %s", got, want)
				}
			})
		}
	}
}
