// Package core assembles the pieces of the library into the one
// real-time driver the root package modab re-exports: Group, the locally
// driven processes of a group over a transport — every process over the
// in-memory network, or a single process of a TCP group (cmd/abnode's
// deployment shape).
package core

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"modab/internal/engine"
	"modab/internal/member"
	"modab/internal/obs"
	"modab/internal/recovery"
	"modab/internal/rsm"
	"modab/internal/runtime"
	"modab/internal/stream"
	"modab/internal/trace"
	"modab/internal/transport"
	"modab/internal/types"
	"modab/internal/wal"
)

// DurabilityOptions enables the crash-recovery subsystem: each local
// process appends its admissions and consensus decisions to a
// write-ahead log under Dir, and a restarted process replays that log and
// performs state transfer before resuming (see internal/recovery). An
// in-memory group places process i's log in Dir/p<i>; the single local
// process of a TCP group logs directly in Dir (each OS process of the
// group runs with its own directory).
type DurabilityOptions struct {
	// Dir is the root directory of the write-ahead log(s).
	Dir string
	// Log tunes the segmented log (fsync policy, segment size); the zero
	// value means wal.SyncAlways with 4 MiB segments.
	Log wal.Options
}

// GroupOptions carries the tunables of a group beyond its size and stack.
// The zero value is fully usable: all n processes local, in memory.
type GroupOptions struct {
	// Engine optionally overrides the protocol tunables (zero value means
	// engine.DefaultConfig(n)).
	Engine engine.Config
	// HeartbeatPeriod and SuspectTimeout parameterize each node's failure
	// detector (zero values use the runtime defaults).
	HeartbeatPeriod time.Duration
	SuspectTimeout  time.Duration
	// OnDeliver, when set, observes every adelivery at every local process
	// — a convenience adapter over the delivery stream (see
	// Group.Deliveries).
	OnDeliver func(ev engine.Event)
	// Durability, when non-nil, gives every local node a write-ahead log
	// and enables Group.Restart.
	Durability *DurabilityOptions
	// StateMachine, when non-nil, gives every local node a replicated
	// state machine fed from its delivery path (the factory runs once per
	// node incarnation). With Durability, snapshots persist under the
	// node's log directory and restarts are snapshot-anchored.
	StateMachine func() rsm.StateMachine
	// SnapshotEvery is the snapshot cadence in instances; 0 disables
	// automatic snapshots.
	SnapshotEvery uint64
	// Observability, when non-nil, gives every local node an obs.Recorder
	// (latency histograms plus the sampled lifecycle tracer; the pointed-to
	// zero value selects the defaults). Recorders survive Crash/Restart,
	// accumulating across incarnations; read them with Group.Obs.
	Observability *obs.Config

	// Addrs, when non-empty, puts the group on TCP: it lists every
	// process's listen address, indexed by ID, and the Group drives only
	// process Self — the other slots are remote peers, driven by their own
	// OS processes, and answer types.ErrNotLocal here.
	Addrs []string
	Self  types.ProcessID
	// Join marks the local TCP process a joiner: Addrs[Self] is its own
	// listen address (the boot peers occupy the lower slots), and instead
	// of assuming boot membership it starts with restart-style empty state
	// — once a member sponsors its admission (Group.RequestJoin), it
	// announces itself and catches up through state transfer.
	Join bool
	// BootN is the original boot group size, the epoch-0 view a joiner
	// replays config history from. 0 infers it: len(Addrs) for members,
	// Self for a joiner (correct when this is the first join; later
	// joiners whose Addrs table already includes earlier joiners must set
	// it explicitly).
	BootN int
}

// Group is the locally driven processes of one group over a transport:
// all of them over an in-memory network — the quickest way to use the
// library inside one OS process — or, with GroupOptions.Addrs, one of
// them over TCP. Which slots are local is the only thing the two shapes
// differ in: every per-process method resolves its target through node.
type Group struct {
	// mu guards nodes, obsRecs, addrs (and the membership state below):
	// Crash, Restart, Close, joiner spawns and decided admissions swap or
	// grow entries concurrently with submissions reading them.
	mu    sync.RWMutex
	nodes []*runtime.Node
	// obsRecs holds the local processes' observability recorders
	// (GroupOptions.Observability; nil entries otherwise). Like counters
	// they outlive node incarnations: Restart hands the new node its
	// predecessor's recorder.
	obsRecs []*obs.Recorder
	// net connects the processes of an all-local group; nil over TCP,
	// where addrs is the address table instead. The table grows as OpAdd
	// ops activate, so every member learns a joiner's address from the
	// decided op itself (no out-of-band address exchange).
	net   *transport.MemNetwork
	addrs []string
	hub   *stream.Hub[engine.Event]
	start time.Time

	// bootN is the boot group size — the epoch-0 view every incarnation
	// rebuilds its config history from (runtime Options.N must stay the
	// boot size across restarts and joins; the current membership is the
	// engines' business, not a driver constant).
	bootN int
	// nextID allocates dense joiner IDs; pending marks IDs whose OpAdd is
	// in flight so the first applied view naming one spawns it exactly
	// once. spawnErr surfaces a failed spawn to the waiting Add. closed
	// stops late spawns after Close.
	nextID   types.ProcessID
	pending  map[types.ProcessID]bool
	spawnErr map[types.ProcessID]error
	closed   bool
	// viewCh is closed and replaced on every applied view change and
	// joiner spawn — a condition broadcast for Add/Remove waiters.
	viewMu sync.Mutex
	viewCh chan struct{}

	// lifecycle serializes Crash, Restart and Close with each other (but
	// not with submissions): a Restart overlapping a Crash of the same
	// process could otherwise reopen the write-ahead log while the dying
	// incarnation is still appending to it.
	lifecycle sync.Mutex

	// stack and opts are retained so Restart can rebuild a node.
	stack types.Stack
	opts  GroupOptions

	// streamDropped counts drops at group-level subscriptions. With every
	// process local they are not attributable to one of them and Stats
	// folds them into the totals; the single local process of a TCP group
	// owns them all (see Counters).
	streamDropped atomic.Int64
}

// NewGroup starts the local processes of an n-process group running the
// given stack: all n over an in-memory network, or — with opts.Addrs —
// process opts.Self over TCP.
func NewGroup(n int, stack types.Stack, opts GroupOptions) (*Group, error) {
	if n < 1 {
		return nil, types.ErrEmptyGroup
	}
	if opts.Durability != nil && opts.Durability.Dir == "" {
		return nil, fmt.Errorf("%w: durability requires a directory", types.ErrBadConfig)
	}
	g := &Group{
		start:    time.Now(),
		stack:    stack,
		opts:     opts,
		bootN:    n,
		nextID:   types.ProcessID(n),
		pending:  make(map[types.ProcessID]bool),
		spawnErr: make(map[types.ProcessID]error),
		viewCh:   make(chan struct{}),
	}
	switch {
	case len(opts.Addrs) == 0 && opts.Join:
		return nil, fmt.Errorf("%w: Join requires a TCP address table", types.ErrBadConfig)
	case len(opts.Addrs) == 0:
		g.net = transport.NewMemNetwork()
	case len(opts.Addrs) != n || opts.Self < 0 || int(opts.Self) >= n:
		return nil, fmt.Errorf("%w: n=%d, %d addresses, self %d", types.ErrBadConfig, n, len(opts.Addrs), opts.Self)
	default:
		g.addrs = append([]string(nil), opts.Addrs...)
		// A joiner's boot group is the peers below its own slot; a boot
		// member counts the whole table. BootN overrides both.
		if opts.Join {
			g.bootN = int(opts.Self)
		}
		if opts.BootN > 0 {
			g.bootN = opts.BootN
		}
	}
	g.hub = stream.NewHub[engine.Event](stream.DefaultBuffer, stream.Block,
		func() { g.streamDropped.Add(1) })
	g.grow(n)
	for i := 0; i < n; i++ {
		if !g.local(i) {
			continue
		}
		node, err := g.startNode(types.ProcessID(i), nil)
		if err != nil {
			_ = g.Close()
			return nil, fmt.Errorf("core: start node %d: %w", i, err)
		}
		g.nodes[i] = node
	}
	return g, nil
}

// local reports whether this Group drives slot p itself.
func (g *Group) local(p int) bool { return g.net != nil || p == int(g.opts.Self) }

// grow extends the slot tables to n entries (mu held, or during
// construction): a nil node, a recorder for a local slot under
// GroupOptions.Observability, an unknown address over TCP.
func (g *Group) grow(n int) {
	for p := len(g.nodes); p < n; p++ {
		g.nodes = append(g.nodes, nil)
		var rec *obs.Recorder
		if g.opts.Observability != nil && g.local(p) {
			rec = obs.NewRecorder(*g.opts.Observability)
		}
		g.obsRecs = append(g.obsRecs, rec)
		if g.net == nil && p >= len(g.addrs) {
			g.addrs = append(g.addrs, "")
		}
	}
}

// dir is process p's durable directory (see DurabilityOptions).
func (g *Group) dir(p types.ProcessID) string {
	if g.net == nil {
		return g.opts.Durability.Dir
	}
	return filepath.Join(g.opts.Durability.Dir, fmt.Sprintf("p%d", p))
}

// startNode builds one incarnation of local process p on a fresh
// transport endpoint, opening its write-ahead log and snapshot store
// when durability is configured. A non-nil initView marks the node a
// spawned joiner: it starts from the admitting view and catches up
// through state transfer instead of assuming the boot group.
func (g *Group) startNode(p types.ProcessID, initView *member.View) (*runtime.Node, error) {
	g.mu.RLock()
	rec := g.obsRecs[p]
	addrs := g.addrs
	g.mu.RUnlock()
	var store recovery.Store
	if d := g.opts.Durability; d != nil {
		logOpts := d.Log
		logOpts.Obs = rec
		var err error
		if store, err = wal.Open(g.dir(p), logOpts); err != nil {
			return nil, err
		}
	}
	var tr transport.Transport
	fail := func(err error) (*runtime.Node, error) {
		if tr != nil {
			_ = tr.Close()
		}
		if store != nil {
			_ = store.Close()
		}
		return nil, err
	}
	var sm rsm.StateMachine
	var snaps rsm.Store
	if g.opts.StateMachine != nil {
		// A fresh incarnation gets a fresh state machine: its state is
		// rebuilt from the local snapshot plus the log suffix, never
		// inherited from the dead incarnation's memory. Snapshots live in
		// files alongside the write-ahead log when the group is durable,
		// in memory otherwise.
		sm, snaps = g.opts.StateMachine(), rsm.NewMemStore()
		if g.opts.Durability != nil {
			var err error
			if snaps, err = rsm.OpenFileStore(filepath.Join(g.dir(p), "snap")); err != nil {
				return fail(err)
			}
		}
	}
	var tcp *transport.TCP
	if g.net != nil {
		tr = g.net.Reset(p)
	} else {
		var err error
		if tcp, err = transport.NewTCP(p, addrs); err != nil {
			return fail(err)
		}
		tr = tcp
	}
	node, err := runtime.NewNode(runtime.Options{
		Self:      p,
		N:         g.bootN,
		Stack:     g.stack,
		Engine:    g.opts.Engine,
		Transport: tr,
		Store:     store,
		OnDeliver: func(d engine.Delivery) {
			ev := engine.Event{P: p, D: d, At: time.Since(g.start)}
			if fn := g.opts.OnDeliver; fn != nil {
				fn(ev)
			}
			g.hub.Publish(ev)
		},
		HeartbeatPeriod: g.opts.HeartbeatPeriod,
		SuspectTimeout:  g.opts.SuspectTimeout,
		StateMachine:    sm,
		SnapshotStore:   snaps,
		SnapshotEvery:   g.opts.SnapshotEvery,
		Obs:             rec,
		InitialView:     initView,
		Join:            g.opts.Join,
		OnConfig:        func(v member.View, op member.Op) { g.onViewChange(tcp, v, op) },
	})
	if err != nil {
		return fail(err)
	}
	return node, nil
}

// Restart brings a crashed local process back — the crash-recovery model.
// It requires GroupOptions.Durability: the new incarnation replays the
// process's write-ahead log, announces itself, and catches up on missed
// decisions via state transfer before resuming. The survivors' failure
// detectors unsuspect it as soon as they hear from it again.
func (g *Group) Restart(p int) error {
	if g.opts.Durability == nil {
		return fmt.Errorf("%w: Restart requires durability (WithDurability)", types.ErrBadConfig)
	}
	// Serialize against Crash/Close: the old incarnation must have fully
	// released its write-ahead log before this one reopens it.
	g.lifecycle.Lock()
	defer g.lifecycle.Unlock()
	switch _, err := g.node(p); {
	case err == nil:
		return fmt.Errorf("%w: p%d is still running", types.ErrBadConfig, p+1)
	case !errors.Is(err, types.ErrCrashed):
		return err
	}
	node, err := g.startNode(types.ProcessID(p), nil)
	if err != nil {
		return fmt.Errorf("core: restart node %d: %w", p, err)
	}
	g.mu.Lock()
	g.nodes[p] = node
	g.mu.Unlock()
	return nil
}

// Add admits a new process to the group: an OpAdd rides the total order
// through a live local member. With every process local (addr must be
// empty) the joiner is spawned here — on a fresh in-memory endpoint, with
// its own write-ahead log and snapshot store — when the first process
// applies the view that admits it. Over TCP the joiner is another OS
// process listening on addr, and every member learns the address from the
// decided op. Either way the joiner catches up through the ordinary
// restart-style state transfer. Add blocks until a local joiner is running
// and every live local process has applied the admitting view, and
// returns the joiner's ID.
func (g *Group) Add(ctx context.Context, addr string) (types.ProcessID, error) {
	if g.opts.Durability == nil {
		// Members without write-ahead logs cannot serve the decided
		// prefix, so the joiner's state transfer would never finish.
		return 0, fmt.Errorf("%w: Add requires durability (WithDurability)", types.ErrBadConfig)
	}
	if (addr != "") != (g.net == nil) {
		return 0, fmt.Errorf("%w: a joiner's listen address is given exactly when the group runs over TCP", types.ErrBadConfig)
	}
	var target types.ProcessID
	if g.net == nil {
		// No group-wide allocator over TCP: the next ID of the sponsor's
		// view (a racing admission loses the epoch CAS at decide time).
		v := g.View(int(g.opts.Self))
		if len(v.Members) == 0 {
			return 0, types.ErrCrashed // the one process that could sponsor is down
		}
		target = v.MaxID() + 1
	} else {
		g.mu.Lock()
		if g.closed {
			g.mu.Unlock()
			return 0, types.ErrStopped
		}
		target = g.nextID
		g.nextID++
		g.pending[target] = true
		g.mu.Unlock()
	}
	if err := g.submitConfig(ctx, member.Op{Kind: member.OpAdd, Target: target, Addr: addr}, -1); err != nil {
		g.mu.Lock()
		delete(g.pending, target)
		g.mu.Unlock()
		return 0, err
	}
	for {
		wait := g.viewChanged()
		g.mu.RLock()
		running := !g.local(int(target)) || int(target) < len(g.nodes) && g.nodes[target] != nil
		err := g.spawnErr[target]
		g.mu.RUnlock()
		if err != nil {
			return 0, err
		}
		// Not at first spawn: a config op submitted through a process still
		// on the old epoch is stamped with a stale BaseEpoch and rejected
		// at decide time, so an immediately following Add/Remove would
		// silently do nothing.
		if running && g.viewEverywhere(target, true) {
			return target, nil
		}
		select {
		case <-wait:
		case <-ctx.Done():
			return 0, ctx.Err()
		}
	}
}

// RequestJoin asks sponsor — a current member — to submit the local TCP
// joiner's admission (GroupOptions.Join), and blocks until the decided
// view admits it. The request frame is fire-and-forget (it may race the
// decide or be dropped by a connecting transport), so it is re-sent
// periodically until the view changes.
func (g *Group) RequestJoin(ctx context.Context, sponsor types.ProcessID) error {
	if !g.opts.Join {
		return fmt.Errorf("%w: RequestJoin needs a TCP group started with WithJoin", types.ErrBadConfig)
	}
	self := g.opts.Self
	for {
		wait := g.viewChanged()
		node, err := g.node(int(self))
		if err != nil {
			return err
		}
		if node.CurrentView().Contains(self) {
			return nil
		}
		_ = node.RequestJoin(sponsor, g.opts.Addrs[self]) // lost requests are re-sent below
		select {
		case <-wait:
		case <-time.After(100 * time.Millisecond):
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}

// Remove retires process p: an OpRemove rides the total order through a
// live local member, and once every live local process has applied the
// view that excludes p, the process is decommissioned — crashed when it
// is local; a remote TCP peer is stopped by its operator. Removing an
// already-crashed process works — that is the permanent-node-loss
// recovery: the group stops waiting for it and quorums shrink.
func (g *Group) Remove(ctx context.Context, p int) error {
	// Crashed and remote targets are fine; only a slot that does not exist is not.
	if _, err := g.node(p); errors.Is(err, types.ErrBadConfig) {
		return err
	}
	target := types.ProcessID(p)
	if err := g.submitConfig(ctx, member.Op{Kind: member.OpRemove, Target: target}, p); err != nil {
		return err
	}
	for {
		wait := g.viewChanged()
		if g.viewEverywhere(target, false) {
			if !g.local(p) {
				return nil
			}
			return g.Crash(p)
		}
		select {
		case <-wait:
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}

// View returns process p's newest locally applied membership view (the
// zero view after Crash(p), for a remote peer or an out-of-range index).
func (g *Group) View(p int) member.View {
	node, err := g.node(p)
	if err != nil {
		return member.View{}
	}
	return node.CurrentView()
}

// submitConfig drives one config op through a live local member,
// retrying flow-control rejections (the op is an ordinary abcast
// competing for window slots). avoid names a process to use as sponsor
// only when no other is driven here — the remove target; -1 for none.
func (g *Group) submitConfig(ctx context.Context, op member.Op, avoid int) error {
	for {
		node := g.sponsor(avoid)
		if node == nil {
			return types.ErrCrashed
		}
		_, err := node.SubmitConfig(op)
		if !errors.Is(err, types.ErrFlowControl) {
			return err
		}
		select {
		case <-time.After(2 * time.Millisecond):
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}

// sponsor picks a live local node to submit a config op through,
// preferring any other than avoid.
func (g *Group) sponsor(avoid int) *runtime.Node {
	g.mu.RLock()
	defer g.mu.RUnlock()
	var avoided *runtime.Node
	for i, n := range g.nodes {
		switch {
		case n == nil:
		case i == avoid:
			avoided = n
		default:
			return n
		}
	}
	return avoided
}

// viewEverywhere reports whether id's membership equals member in the
// applied view of every live local process (at least one). A process
// being removed does not vouch for its own removal unless it is the only
// one driven here (a TCP process sponsoring its own removal).
func (g *Group) viewEverywhere(id types.ProcessID, member bool) bool {
	g.mu.RLock()
	nodes := append([]*runtime.Node(nil), g.nodes...)
	g.mu.RUnlock()
	var self *runtime.Node
	others := false
	for i, n := range nodes {
		switch {
		case n == nil:
		case !member && i == int(id):
			self = n
		case n.CurrentView().Contains(id) != member:
			return false
		default:
			others = true
		}
	}
	if others || self == nil {
		return others
	}
	return !self.CurrentView().Contains(id)
}

// onViewChange observes every applied view at every local process (the
// runtime's OnConfig hook, on the event loop of the node whose TCP
// transport — nil in memory — is tcp): an admission grows the slot
// tables, teaches the transport the joiner's address and spawns a
// pending local joiner; every change wakes Add/Remove waiters.
func (g *Group) onViewChange(tcp *transport.TCP, v member.View, op member.Op) {
	if op.Kind == member.OpAdd {
		g.admit(tcp, v, op)
	}
	g.viewPulse()
}

// admit applies one decided OpAdd to the driver state. A pending joiner
// is started exactly once, asynchronously (a node spawn opens logs and
// starts goroutines — not event-loop work).
func (g *Group) admit(tcp *transport.TCP, v member.View, op member.Op) {
	id := op.Target
	g.mu.Lock()
	if g.closed {
		g.mu.Unlock()
		return
	}
	g.grow(int(id) + 1)
	if tcp != nil && op.Addr != "" && g.addrs[id] != op.Addr {
		g.addrs[id] = op.Addr
		tcp.SetAddrs(g.addrs)
	}
	spawn := g.pending[id]
	delete(g.pending, id)
	g.mu.Unlock()
	if !spawn {
		return
	}
	view := v
	view.Members = append([]types.ProcessID(nil), v.Members...)
	go func() {
		node, err := g.startNode(id, &view)
		g.mu.Lock()
		switch {
		case err != nil:
			g.spawnErr[id] = err
		case g.closed:
			g.mu.Unlock()
			_ = node.Close()
			g.viewPulse()
			return
		default:
			g.nodes[id] = node
		}
		g.mu.Unlock()
		g.viewPulse()
	}()
}

// viewChanged returns a channel closed at the next view change or spawn.
func (g *Group) viewChanged() <-chan struct{} {
	g.viewMu.Lock()
	defer g.viewMu.Unlock()
	return g.viewCh
}

// viewPulse wakes every Add/Remove waiter.
func (g *Group) viewPulse() {
	g.viewMu.Lock()
	close(g.viewCh)
	g.viewCh = make(chan struct{})
	g.viewMu.Unlock()
}

// N returns the number of process slots ever created (boot group plus
// joiners; removed and crashed processes keep their slots).
func (g *Group) N() int {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return len(g.nodes)
}

// Node returns the i-th process's node (nil after Crash(i), for a remote
// peer or an out-of-range index).
func (g *Group) Node(i int) *runtime.Node {
	n, _ := g.node(i)
	return n
}

// Applier returns process p's state machine applier (nil without
// GroupOptions.StateMachine and wherever Node(p) is nil).
func (g *Group) Applier(p int) *rsm.Applier {
	if n := g.Node(p); n != nil {
		return n.Applier()
	}
	return nil
}

// node fetches one process's live node — the single lookup behind every
// per-process method: types.ErrBadConfig out of range, types.ErrNotLocal
// for a slot another OS process drives, types.ErrStopped after Close,
// types.ErrCrashed after Crash.
func (g *Group) node(p int) (*runtime.Node, error) {
	g.mu.RLock()
	defer g.mu.RUnlock()
	switch {
	case p < 0 || p >= len(g.nodes):
		return nil, fmt.Errorf("%w: p%d of a group of %d", types.ErrBadConfig, p+1, len(g.nodes))
	case !g.local(p):
		return nil, fmt.Errorf("%w: p%d (local node is %s)", types.ErrNotLocal, p+1, g.opts.Self)
	case g.closed:
		return nil, types.ErrStopped
	case g.nodes[p] == nil:
		return nil, types.ErrCrashed
	}
	return g.nodes[p], nil
}

// Abcast submits a payload at process p, blocking on flow control until
// the message is admitted, the context is canceled (returning ctx.Err())
// or the group shuts down. Submitting at a crashed process returns
// types.ErrCrashed.
func (g *Group) Abcast(ctx context.Context, p int, body []byte) (types.MsgID, error) {
	node, err := g.node(p)
	if err != nil {
		return types.MsgID{}, err
	}
	return node.Abcast(ctx, body)
}

// TryAbcast submits a payload at process p without waiting; it returns
// types.ErrFlowControl when p's window is full.
func (g *Group) TryAbcast(p int, body []byte) (types.MsgID, error) {
	node, err := g.node(p)
	if err != nil {
		return types.MsgID{}, err
	}
	return node.TryAbcast(body)
}

// Deliveries subscribes to the group-wide adelivery stream: every
// adelivery at every local process, tagged with the delivering process.
// Per-process delivery order is preserved; the interleaving between
// processes is arbitrary. Options override the group's default buffer
// and overflow policy. The channel closes after Close.
func (g *Group) Deliveries(opts ...stream.SubOption) *stream.Sub[engine.Event] {
	return g.hub.Subscribe(opts...)
}

// Counters returns a snapshot of process p's instrumentation (zero after
// Crash(p) and for a remote peer). The single local process of a TCP
// group also carries the drops at group-level subscriptions.
func (g *Group) Counters(p int) trace.Snapshot {
	node, err := g.node(p)
	if err != nil {
		return trace.Snapshot{}
	}
	snap := node.Counters()
	if g.net == nil {
		snap.StreamDropped += g.streamDropped.Load()
	}
	return snap
}

// Obs returns process p's observability recorder, or nil when the group
// runs without GroupOptions.Observability, for a remote peer and for an
// out-of-range index. The recorder survives Crash/Restart, accumulating
// across incarnations.
func (g *Group) Obs(p int) *obs.Recorder {
	g.mu.RLock()
	defer g.mu.RUnlock()
	if p < 0 || p >= len(g.obsRecs) {
		return nil
	}
	return g.obsRecs[p]
}

// Stats returns the uniform whole-group snapshot.
func (g *Group) Stats() trace.Stats {
	n := g.N()
	st := trace.Stats{N: n, PerProcess: make([]trace.Snapshot, n)}
	for i := 0; i < n; i++ {
		st.PerProcess[i] = g.Counters(i)
		st.Total.Add(st.PerProcess[i])
	}
	if g.net != nil {
		st.Total.StreamDropped += g.streamDropped.Load()
	}
	return st
}

// Crash closes one local node, simulating a crash-stop failure. The
// survivors' failure detectors will suspect it after their timeout. Crash
// returns only after the node fully stopped (and, with durability,
// released its write-ahead log), so a subsequent Restart finds the log
// quiescent. Crashing a crashed process is a no-op.
func (g *Group) Crash(p int) error {
	g.lifecycle.Lock()
	defer g.lifecycle.Unlock()
	node, err := g.node(p)
	if errors.Is(err, types.ErrCrashed) {
		return nil
	}
	if err != nil {
		return err
	}
	g.mu.Lock()
	g.nodes[p] = nil
	g.mu.Unlock()
	return node.Close()
}

// Close shuts every local process down and ends every delivery stream
// (subscribers drain what is buffered, then see their channels closed).
// It returns the first error a node reported while stopping.
func (g *Group) Close() error {
	g.lifecycle.Lock()
	defer g.lifecycle.Unlock()
	g.mu.Lock()
	g.closed = true
	nodes := append([]*runtime.Node(nil), g.nodes...)
	for i := range g.nodes {
		g.nodes[i] = nil
	}
	g.mu.Unlock()
	var first error
	for _, n := range nodes {
		if n == nil {
			continue
		}
		if err := n.Close(); err != nil && first == nil {
			first = err
		}
	}
	g.hub.Close()
	return first
}
