package main

import (
	"context"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"syscall"

	"modab"
)

// streamBuffer is the bench's delivery-subscription buffer. It is larger
// than the library default (256) so that a collector descheduled for a
// few milliseconds on a 2-core box does not stall the engines it measures.
const streamBuffer = 8192

// sut is the system under test: one group of n processes behind the public
// facade — a single in-process cluster over the in-memory network, or n
// single-process TCP clusters meshed over loopback.
type sut struct {
	n        int
	clusters []*modab.Cluster // one (in-memory) or n (TCP; index = process)
	subs     []*modab.DeliveryStream
	walDir   string // removed by close
}

// sutOptions selects what newSUT builds beyond the workload's tuning.
type sutOptions struct {
	n      int
	obs    uint64 // WithObservability sampling period; 0 = off
	walDir string // parent for the durable workloads' log directory
}

func newSUT(w workload, stack modab.Stack, so sutOptions) (*sut, error) {
	s := &sut{n: so.n}
	opts := w.options()
	if so.obs > 0 {
		opts = append(opts, modab.WithObservability(so.obs))
	}
	if w.kv() {
		opts = append(opts, modab.WithStateMachine(func() modab.StateMachine { return modab.NewKV() }, w.snapEvery))
	}
	if w.durable {
		dir, err := os.MkdirTemp(so.walDir, "wal-")
		if err != nil {
			return nil, fmt.Errorf("wal dir: %w", err)
		}
		s.walDir = dir
		opts = append(opts, modab.WithDurability(dir, modab.SyncAlways))
	}
	if !w.tcp {
		c, err := modab.New(so.n, stack, opts...)
		if err != nil {
			s.close()
			return nil, err
		}
		s.clusters = []*modab.Cluster{c}
	} else {
		addrs, err := loopbackAddrs(so.n)
		if err != nil {
			return nil, err
		}
		for p := 0; p < so.n; p++ {
			o := append(append([]modab.Option(nil), opts...), modab.WithTransportTCP(addrs, modab.ProcessID(p)))
			c, err := modab.New(so.n, stack, o...)
			if err != nil {
				s.close()
				return nil, fmt.Errorf("tcp process %d: %w", p, err)
			}
			s.clusters = append(s.clusters, c)
		}
	}
	for _, c := range s.clusters {
		s.subs = append(s.subs, c.Deliveries(modab.StreamBuffer(streamBuffer)))
	}
	return s, nil
}

// loopbackAddrs reserves n free loopback ports by binding and releasing
// them; the clusters rebind them immediately afterwards.
func loopbackAddrs(n int) ([]string, error) {
	addrs := make([]string, n)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, fmt.Errorf("reserve loopback port: %w", err)
		}
		addrs[i] = ln.Addr().String()
		defer ln.Close()
	}
	return addrs, nil
}

// cluster returns the cluster that drives process p.
func (s *sut) cluster(p int) *modab.Cluster {
	if len(s.clusters) == 1 {
		return s.clusters[0]
	}
	return s.clusters[p]
}

func (s *sut) abcast(ctx context.Context, p int, body []byte) (modab.MsgID, error) {
	return s.cluster(p).Abcast(ctx, p, body)
}

func (s *sut) tryAbcast(p int, body []byte) (modab.MsgID, error) {
	return s.cluster(p).TryAbcast(p, body)
}

// counters returns process p's counters.
func (s *sut) counters(p int) modab.Snapshot { return s.cluster(p).Counters(p) }

// total sums the counters of every process.
func (s *sut) total() modab.Snapshot {
	if len(s.clusters) == 1 {
		return s.clusters[0].Stats().Total
	}
	var t modab.Snapshot
	for p := range s.clusters {
		t.Add(s.clusters[p].Stats().Total)
	}
	return t
}

// close shuts every cluster down (their delivery streams drain and close)
// and removes the write-ahead logs.
func (s *sut) close() {
	for _, c := range s.clusters {
		_ = c.Close() // shutdown of a finished run; nothing to report
	}
	if s.walDir != "" {
		_ = os.RemoveAll(s.walDir) // scratch data of a finished run
	}
}

// tmpfsMagic is statfs's f_type for tmpfs.
const tmpfsMagic = 0x01021994

// pickWALDir chooses where the durable workloads log. A tmpfs measures the
// program's WAL path rather than a shared disk (whose fsync swung 15× between
// identical runs when this benchmark was sized), so /dev/shm is preferred
// when it is a tmpfs with room; otherwise the log goes under fallback, inside
// the checkout. The returned kind is recorded in the machine descriptor.
func pickWALDir(fallback string) (dir, kind string, err error) {
	const shm = "/dev/shm"
	var st syscall.Statfs_t
	if syscall.Statfs(shm, &st) == nil && st.Type == tmpfsMagic &&
		uint64(st.Bavail)*uint64(st.Bsize) >= 2<<30 {
		if d, err := os.MkdirTemp(shm, "modab-bench-"); err == nil {
			return d, "tmpfs", nil
		}
	}
	dir = filepath.Join(fallback, "wal")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", "", err
	}
	kind = "unknown"
	if syscall.Statfs(dir, &st) == nil {
		kind = fmt.Sprintf("fs-0x%x", st.Type)
		if st.Type == tmpfsMagic {
			kind = "tmpfs"
		}
	}
	return dir, kind, nil
}
