package cluster

import (
	"context"
	"errors"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"crdtsmr/internal/core"
	"crdtsmr/internal/crdt"
	"crdtsmr/internal/persist"
	"crdtsmr/internal/transport"
	"crdtsmr/internal/wire"
)

// ErrUnavailable is returned for commands submitted to a crashed node.
var ErrUnavailable = errors.New("cluster: node unavailable")

// ErrStopped is returned for commands submitted to a closed node.
var ErrStopped = errors.New("cluster: node stopped")

// DefaultKey is the object key of the single-object API: Update and Query
// operate on the object stored under this key.
const DefaultKey = ""

// Config configures every node of a cluster.
type Config struct {
	// Members lists the replica group at boot. It seeds the node's
	// configuration view (epoch 0); reconfiguration supersedes it at
	// runtime (Node.Reconfigure, docs/ARCHITECTURE.md "Reconfiguration
	// lifecycle"), so after the first committed epoch the live member set
	// is Node.Members, not this field.
	Members []transport.NodeID
	// Joining starts the node as a joiner: its replicas begin with an
	// empty member set, refuse client commands (core.ErrNotMember → the
	// runtime's unavailable path), and serve no quorums until an existing
	// member reconfigures them in — at which point the configuration push
	// carries the full payload, bootstrapping the joiner's state in the
	// same message. Members is ignored for the protocol when Joining is
	// set (the transport still needs the node reachable by its ID).
	Joining bool
	// Initial is the initial CRDT payload s0 of the default object,
	// identical on all replicas.
	Initial crdt.State
	// InitialForKey, when set, supplies the initial payload s0 for keys
	// other than DefaultKey. It must be deterministic and identical across
	// replicas (it runs independently on every node when the key is first
	// touched). When nil, every key starts from a fresh zero value of
	// Initial's payload type.
	InitialForKey func(key string) crdt.State
	// Options are the protocol options (see core.Options).
	Options core.Options
	// RetransmitInterval is how long a request waits for its quorum before
	// re-driving its messages. Default 100 ms.
	RetransmitInterval time.Duration
	// BatchInterval, when positive, enables §3.6 per-proposer batching:
	// commands buffer locally per key and flush every interval, one
	// protocol run per key per batch. The paper's evaluation uses 5 ms.
	BatchInterval time.Duration
	// Shards is the number of independent key-sharded event loops the
	// node runs. Keys hash to a shard; each shard owns its replicas,
	// timers, batches, and outbox with no cross-shard locks on the hot
	// path, so different keys' protocol work spreads across cores
	// (the per-object independence the paper's protocol guarantees —
	// replicas of different keys share nothing). Zero selects the
	// CRDTSMR_SHARDS environment variable when set (NewNode rejects a
	// value that is not a positive integer), else runtime.GOMAXPROCS(0).
	// Single-key deployments gain nothing from more than one shard.
	Shards int
	// DataDir, when non-empty, makes the node durable: every object's
	// acceptor payload and consensus metadata is snapshotted to this
	// directory after each durable-state transition — before the
	// resulting protocol messages leave the node, so nothing is promised
	// to a peer that the disk does not hold — and reloaded at startup and
	// by Restart (docs/ARCHITECTURE.md, "Recovery lifecycle"). Empty
	// disables persistence: a crashed node can only Recover with its
	// in-memory state, never Restart.
	DataDir string
	// PersistSync selects the snapshot sync policy (persist.SyncNone by
	// default: the snapshot file format survives process crashes;
	// SyncAlways also survives power loss).
	PersistSync persist.SyncPolicy
	// PersistWriteDelay emulates device flush latency for benchmarks and
	// tests: every persist.Store.Save sleeps this long, and every
	// SaveBatch sleeps it once for the whole batch (the group-commit
	// advantage under measurement). Zero (the default) for real disks.
	PersistWriteDelay time.Duration
	// Recover selects how corrupt snapshot files are treated when
	// loading: fail startup (persist.RecoverStrict, the default) or skip
	// them so the affected keys start fresh and re-learn from the
	// cluster (persist.RecoverIgnoreCorrupt, an explicit operator
	// decision).
	Recover persist.RecoverPolicy

	// persistHook, when set by tests, is installed as the snapshot
	// store's BeforeBatchWrite hook: it runs with a group-commit batch's
	// keys before any file is touched, modeling a crash that tears the
	// whole batch (by failing) or a slow disk (by blocking).
	persistHook func(keys []string) error
}

func (c Config) withDefaults() (Config, error) {
	if c.RetransmitInterval <= 0 {
		c.RetransmitInterval = 100 * time.Millisecond
	}
	if c.Shards <= 0 {
		n, err := defaultShards()
		if err != nil {
			return c, err
		}
		c.Shards = n
	}
	return c, nil
}

// defaultShards resolves Config.Shards when unset: the CRDTSMR_SHARDS
// environment variable (the CI matrix knob), else one shard per
// schedulable CPU. A set but unusable value is an error, not a fallback:
// a mistyped matrix row must not run green on the wrong shard count.
func defaultShards() (int, error) {
	v := os.Getenv("CRDTSMR_SHARDS")
	if v == "" {
		return runtime.GOMAXPROCS(0), nil
	}
	n, err := strconv.Atoi(v)
	if err != nil || n <= 0 {
		return 0, fmt.Errorf("cluster: CRDTSMR_SHARDS=%q: want a positive integer", v)
	}
	return n, nil
}

// initialFor resolves the initial payload for an object key.
func (c Config) initialFor(key string) (crdt.State, error) {
	if key == DefaultKey {
		return c.Initial, nil
	}
	if c.InitialForKey != nil {
		if s := c.InitialForKey(key); s != nil {
			return s, nil
		}
		return nil, fmt.Errorf("cluster: no initial state for key %q", key)
	}
	// States are immutable, but Initial may already hold data; fresh keys
	// must start from the type's bottom element so every replica agrees.
	return crdt.New(c.Initial.TypeName())
}

// Node is one running replica of the whole keyspace: Config.Shards
// independent key-sharded event loops over a single transport
// connection. Keys hash to a shard; each shard drives its keys'
// core.Replica instances, timers, batches, and (on durable nodes) its
// own group-commit persister, so one key's protocol work or disk flush
// never stalls keys on other shards (docs/ARCHITECTURE.md, "Threading
// model").
type Node struct {
	id   transport.NodeID
	cfg  Config
	conn transport.Conn

	shards []*shard
	quit   chan struct{}
	wg     sync.WaitGroup

	store *persist.Store // nil when cfg.DataDir is empty

	// The node's configuration view: the greatest membership configuration
	// any of its replicas has adopted. Configuration is a per-key fact in
	// the protocol (each key's replica group reconfigures through its own
	// joint-quorum round); the node view exists so replicas instantiated
	// AFTER a reconfiguration start from the current member set instead of
	// the boot-time Config.Members — a lazily created key on a frozen
	// member list would address removed peers and count quorums of a group
	// that no longer exists. Any skew between the view and an individual
	// key is repaired by the epoch anti-entropy on the first frame
	// exchanged for that key.
	cfgMu  sync.RWMutex
	curCfg core.Config
	// flushGen numbers the batch-flush cadence. Each (re)start of the
	// flush chain bumps it and stamps its events; a flush event whose
	// generation is stale belongs to a superseded cadence (the membership
	// changed, moving this node's slot in the window) and is dropped.
	flushGen atomic.Uint64

	// inboundDropped counts replica frames dropped because a shard's
	// event queue was full; malformedFrames counts frames whose object
	// envelope failed to decode. Both are written from the transport's
	// delivery goroutine (routing happens there, before any loop), hence
	// atomic.
	inboundDropped  atomic.Uint64
	malformedFrames atomic.Uint64
	// skippedSnaps counts corrupt snapshot files skipped under
	// RecoverIgnoreCorrupt, across startup and every Restart. Written at
	// startup and from Restart's caller goroutine, hence atomic.
	skippedSnaps atomic.Uint64
}

// keyedNotify is one deferred client completion, tagged with the object
// key whose event produced it so a failed snapshot write can withhold
// exactly that key's completions.
type keyedNotify struct {
	key string
	fn  func()
}

type nodeEvent struct {
	kind      eventKind
	from      transport.NodeID
	payload   []byte
	key       string
	update    *updateOp
	query     *queryOp
	reqID     uint64
	crash     bool
	queries   bool                  // evFlush: flush the query batches (else the update batches)
	gen       uint64                // evFlush: the flush-chain generation this event belongs to
	reconfig  *reconfigOp           // evReconfig: this node-wide reconfiguration
	snaps     []persist.KeySnapshot // evRestore: this shard's keys to rehydrate
	restarted chan error            // evRestartPrep / evRestore: receives the phase result
}

// reconfigOp is one pass of a node-wide reconfiguration fanned out to
// every shard. Each shard submits the new member set to each of its
// instantiated keys (only to those whose config the node view supersedes,
// when behindOnly) and reports exactly one aggregate error (nil on
// success) once all of its keys' reconfiguration rounds have committed or
// failed.
type reconfigOp struct {
	members    []transport.NodeID
	behindOnly bool
	swept      atomic.Int64 // keys submitted, summed across shards
	done       chan error   // buffered to the shard count; one send per shard
}

type eventKind uint8

const (
	evInbound eventKind = iota + 1
	evUpdate
	evQuery
	evTimeout
	evFlush
	evSetCrashed
	evRestartPrep // drop volatile state, quiesce the persister, stay crashed
	evRestore     // rehydrate from the given snapshots and resume serving
	evReconfig    // drive this shard's keys through a membership change
)

type updateOp struct {
	fu   crdt.Update
	done chan updateResult
}

type updateResult struct {
	stats core.UpdateStats
	err   error
}

type queryOp struct {
	done chan queryResult
}

type queryResult struct {
	state crdt.State
	stats core.QueryStats
	err   error
}

// NewNode creates and starts a node. join binds the node's ID and inbound
// handler to a transport (e.g. a wrapper around Mesh.Join or NewTCP).
func NewNode(id transport.NodeID, cfg Config, join func(transport.NodeID, transport.Handler) transport.Conn) (*Node, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	n := &Node{
		id:   id,
		cfg:  cfg,
		quit: make(chan struct{}),
	}
	if !cfg.Joining {
		n.curCfg = core.Config{Members: append([]transport.NodeID(nil), cfg.Members...)}
	}
	if cfg.DataDir != "" {
		store, err := persist.Open(cfg.DataDir, persist.Options{
			Sync:             cfg.PersistSync,
			WriteDelay:       cfg.PersistWriteDelay,
			BeforeBatchWrite: cfg.persistHook,
		})
		if err != nil {
			return nil, fmt.Errorf("cluster: %s: %w", id, err)
		}
		n.store = store
	}
	n.shards = make([]*shard, cfg.Shards)
	for i := range n.shards {
		n.shards[i] = newShard(n, i)
	}
	// Instantiate the default object eagerly: it validates the member list
	// and initial state once, at startup, rather than on the first command.
	// A joiner starts it with the empty configuration instead — it must
	// refuse commands until reconfigured in.
	var rep *core.Replica
	if cfg.Joining {
		rep, err = core.NewReplicaConfig(id, core.Config{}, cfg.Initial, cfg.Options)
	} else {
		rep, err = core.NewReplica(id, cfg.Members, cfg.Initial, cfg.Options)
	}
	if err != nil {
		return nil, err
	}
	n.shardOf(DefaultKey).replicas[DefaultKey] = rep
	// Rehydrate before joining the transport: once the first message can
	// arrive, every key's acceptor must already hold its pre-crash round.
	// The shards' loops have not started, so installing directly is safe.
	if n.store != nil {
		snaps, skipped, err := n.store.LoadAll(cfg.Recover)
		if err != nil {
			return nil, fmt.Errorf("cluster: %s: %w", id, err)
		}
		n.skippedSnaps.Add(uint64(skipped))
		for _, ks := range snaps {
			if err := n.shardOf(ks.Key).installSnapshot(ks); err != nil {
				return nil, err
			}
		}
	}
	n.conn = join(id, n.handleInbound)
	for _, s := range n.shards {
		n.wg.Add(1)
		go s.loop()
		if s.persistq != nil {
			n.wg.Add(1)
			go s.persister()
		}
	}
	n.startFlushChain()
	return n, nil
}

// startFlushChain (re)starts the batch-flush cadence under a fresh
// generation, de-phasing this node's flush cycle from its peers':
// replicas that flush in lockstep run their query protocols concurrently
// and deny each other's votes every window. Spreading the phases across
// the window keeps the per-window protocol runs of different proposers
// disjoint in time. Called at startup and again whenever the member set
// changes (the node's slot in the window moves with its member index);
// events of the superseded generation are dropped by the evFlush handler,
// so exactly one chain drives each shard.
func (n *Node) startFlushChain() {
	if n.cfg.BatchInterval <= 0 {
		return
	}
	gen := n.flushGen.Add(1)
	offset := flushOffset(n.currentConfig().Members, n.id, n.cfg.BatchInterval)
	for _, s := range n.shards {
		s := s
		time.AfterFunc(offset, func() {
			s.post(nodeEvent{kind: evFlush, gen: gen})
		})
	}
}

// flushOffset places this node's first flush slot within the batch
// window, by member index. The first slot starts a fraction of a window
// in, never at zero — a flush racing node startup could ship a batch the
// instant a client enqueues it. A node outside the member set (a joiner,
// or a node a reconfiguration removed) and an empty view get one full
// window: there is no slot to claim and nothing to de-phase against.
func flushOffset(members []transport.NodeID, id transport.NodeID, interval time.Duration) time.Duration {
	idx := memberIndex(members, id)
	if len(members) == 0 || idx < 0 {
		return interval
	}
	return interval * time.Duration(idx+1) / time.Duration(len(members))
}

// memberIndex returns id's position in members, or -1 when absent.
func memberIndex(members []transport.NodeID, id transport.NodeID) int {
	for i, m := range members {
		if m == id {
			return i
		}
	}
	return -1
}

// currentConfig returns the node's configuration view. The returned
// member slice is shared and must be treated as immutable.
func (n *Node) currentConfig() core.Config {
	n.cfgMu.RLock()
	defer n.cfgMu.RUnlock()
	return n.curCfg
}

// noteConfig folds one replica's adopted configuration into the node
// view, keeping the greatest. When the member set actually changed, the
// batch-flush cadence restarts so this node's flush slot tracks its index
// in the new membership (and its window length the new member count).
func (n *Node) noteConfig(cfg core.Config) {
	n.cfgMu.Lock()
	if !cfg.Supersedes(n.curCfg) {
		n.cfgMu.Unlock()
		return
	}
	changed := !sameMembers(n.curCfg.Members, cfg.Members)
	n.curCfg = cfg
	n.cfgMu.Unlock()
	if changed {
		n.startFlushChain()
	}
}

func sameMembers(a, b []transport.NodeID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Members returns the node's current membership view — the member set of
// the greatest configuration any of its replicas has adopted (boot-time
// Config.Members until the first reconfiguration commits).
func (n *Node) Members() []transport.NodeID {
	cfg := n.currentConfig()
	return append([]transport.NodeID(nil), cfg.Members...)
}

// Epoch returns the configuration epoch of the node's membership view.
func (n *Node) Epoch() uint64 { return n.currentConfig().Epoch }

// Reconfigure proposes the given member set to every object instantiated
// on this node and blocks until each key's reconfiguration round commits
// under the joint quorum (a majority of the old member set AND a majority
// of the new one must adopt it), or fails. New members learn each key's
// full payload from the configuration push itself — reconfiguring a
// joiner in IS its state bootstrap (docs/PROTOCOL.md §6).
//
// Reconfigure must be issued on a current member. Concurrent proposals
// for the same key converge deterministically but the loser surfaces
// core.ErrConfigConflict; operators are expected to serialize membership
// changes through one admin at a time. Keys instantiated on other nodes
// but never on this one are repaired lazily, by the epoch anti-entropy on
// their next frame.
//
// A peer's frame can instantiate a key on a shard after that shard's
// sweep but before any shard has published the new view; such a key
// starts from the old configuration. So after the first pass, Reconfigure
// re-sweeps the keys whose configuration the node view supersedes, until
// a pass finds none.
func (n *Node) Reconfigure(ctx context.Context, members []transport.NodeID) error {
	for behindOnly := false; ; behindOnly = true {
		op := &reconfigOp{
			members:    append([]transport.NodeID(nil), members...),
			behindOnly: behindOnly,
			done:       make(chan error, len(n.shards)),
		}
		if err := n.reconfigurePass(ctx, op); err != nil || op.swept.Load() == 0 {
			return err
		}
	}
}

// reconfigurePass fans op out to every shard and joins their errors.
func (n *Node) reconfigurePass(ctx context.Context, op *reconfigOp) error {
	for _, s := range n.shards {
		if err := s.submit(ctx, nodeEvent{kind: evReconfig, reconfig: op}); err != nil {
			return err
		}
	}
	var errs []error
	for range n.shards {
		select {
		case err := <-op.done:
			if err != nil {
				errs = append(errs, err)
			}
		case <-ctx.Done():
			return ctx.Err()
		case <-n.quit:
			return ErrStopped
		}
	}
	return errors.Join(errs...)
}

// ID returns the node's ID.
func (n *Node) ID() transport.NodeID { return n.id }

// Shards returns the number of event-loop shards the node runs.
func (n *Node) Shards() int { return len(n.shards) }

// shardFor maps an object key to its owning shard index (FNV-1a). The
// mapping is a pure function of the key and the shard count, so every
// command and inbound message for a key lands on the same loop.
func (n *Node) shardFor(key string) int {
	if len(n.shards) == 1 {
		return 0
	}
	h := uint32(2166136261)
	for i := 0; i < len(key); i++ {
		h = (h ^ uint32(key[i])) * 16777619
	}
	return int(h % uint32(len(n.shards)))
}

func (n *Node) shardOf(key string) *shard { return n.shards[n.shardFor(key)] }

// Counters returns a loop-synchronized snapshot of the protocol counters,
// summed across every object instantiated on this node, aggregated shard
// by shard in index order. Frames dropped before reaching a replica — an
// undecodable object envelope, or a key the local configuration rejects —
// count toward MalformedMsgs.
func (n *Node) Counters() core.Counters {
	var sum core.Counters
	for _, s := range n.shards {
		s.call(func() {
			for _, rep := range s.replicas {
				sum.Add(rep.Counters())
			}
			sum.MalformedMsgs += s.droppedFrames
		})
	}
	sum.MalformedMsgs += n.malformedFrames.Load()
	sum.InboundDropped += n.inboundDropped.Load()
	return sum
}

// Keys returns the object keys instantiated on this node so far, sorted.
// A key appears once this node has served a command for it or received a
// protocol message about it.
func (n *Node) Keys() []string {
	var keys []string
	for _, s := range n.shards {
		s.call(func() {
			for k := range s.replicas {
				keys = append(keys, k)
			}
		})
	}
	sort.Strings(keys)
	return keys
}

// Objects returns the number of object replicas instantiated on this node.
func (n *Node) Objects() int {
	count := 0
	for _, s := range n.shards {
		s.call(func() { count += len(s.replicas) })
	}
	return count
}

// Update submits an update command against the default object and blocks
// until it completes or ctx is done.
func (n *Node) Update(ctx context.Context, fu crdt.Update) (core.UpdateStats, error) {
	return n.UpdateKey(ctx, DefaultKey, fu)
}

// UpdateKey submits an update command against the object stored under key
// and blocks until it is durable on a quorum or ctx is done.
func (n *Node) UpdateKey(ctx context.Context, key string, fu crdt.Update) (core.UpdateStats, error) {
	op := &updateOp{fu: fu, done: make(chan updateResult, 1)}
	if err := n.shardOf(key).submit(ctx, nodeEvent{kind: evUpdate, key: key, update: op}); err != nil {
		return core.UpdateStats{}, err
	}
	select {
	case res := <-op.done:
		return res.stats, res.err
	case <-ctx.Done():
		return core.UpdateStats{}, ctx.Err()
	case <-n.quit:
		return core.UpdateStats{}, ErrStopped
	}
}

// Query submits a query command against the default object and blocks until
// a state is learned or ctx is done.
func (n *Node) Query(ctx context.Context) (crdt.State, core.QueryStats, error) {
	return n.QueryKey(ctx, DefaultKey)
}

// QueryKey submits a query command against the object stored under key and
// blocks until a linearizable state is learned or ctx is done. The returned
// state must be treated as immutable.
func (n *Node) QueryKey(ctx context.Context, key string) (crdt.State, core.QueryStats, error) {
	op := &queryOp{done: make(chan queryResult, 1)}
	if err := n.shardOf(key).submit(ctx, nodeEvent{kind: evQuery, key: key, query: op}); err != nil {
		return nil, core.QueryStats{}, err
	}
	select {
	case res := <-op.done:
		return res.state, res.stats, res.err
	case <-ctx.Done():
		return nil, core.QueryStats{}, ctx.Err()
	case <-n.quit:
		return nil, core.QueryStats{}, ErrStopped
	}
}

// ForgetPeer drops the digest/delta caches every object replica on this
// node holds about the given peer — the per-key per-peer views and digest
// rings that large states travel by (docs/PROTOCOL.md §3) — and any round
// lease. The runtime calls it when it declares a peer down; a peer that
// returns with its state intact simply re-earns its cache entries, and one
// that returns empty is caught by the MERGE-NACK fallback either way, so
// forgetting is purely conservative. The drop fans out to the shards in
// index order.
//
// It covers only the replicas that exist when it runs, and that is all it
// needs to: a replica instantiated later starts with empty caches and no
// lease, and it records an entry about a peer only while handling a frame
// from that peer.
func (n *Node) ForgetPeer(id transport.NodeID) {
	for _, s := range n.shards {
		s.call(func() {
			for _, rep := range s.replicas {
				rep.ForgetPeer(id)
			}
		})
	}
}

// SetCrashed simulates a crash (true) or recovery (false). While crashed
// the node drops inbound messages and fails commands, but keeps its
// acceptor state — the paper assumes the crash-recovery model in which
// processes retain their internal state across failures (§2.1). The flag
// fans out to the shards in index order; commands submitted after
// SetCrashed returns observe it on every shard.
func (n *Node) SetCrashed(crashed bool) {
	for _, s := range n.shards {
		s.post(nodeEvent{kind: evSetCrashed, crash: crashed})
	}
}

// Restart models a full process restart on a durable node: every volatile
// structure is dropped — in-flight requests fail over to their clients,
// batches are rejected, all per-key replicas and their transfer caches
// are discarded, pending group-commit batches are flushed to disk and
// their surviving completions delivered — and the keyspace is rehydrated
// from the snapshot directory, exactly as a freshly exec'd process with
// the same -data-dir would come up. The transport binding survives (peers
// redial a real process anyway). This is the paper's recovery claim at
// runtime: no log replay, just one snapshot read per key.
//
// Restart requires a DataDir. If rehydration fails (a corrupt snapshot
// under the strict recover policy), the node stays crashed — refusing to
// serve is the only safe answer when the disk cannot reproduce what was
// promised to the quorum — and the error is returned.
//
// Restart runs in two phases, both travelling each shard's event channel
// (never the side-band call path), so it serializes behind an immediately
// preceding SetCrashed(true): first every shard drops its volatile state,
// quiesces its persister, and parks crashed; then the snapshot directory
// is read once and each shard rehydrates its own keys and resumes.
func (n *Node) Restart() error {
	if n.store == nil {
		return errors.New("cluster: Restart requires a DataDir (volatile nodes can only Recover)")
	}
	if err := n.restartPhase(func(s *shard) nodeEvent {
		return nodeEvent{kind: evRestartPrep}
	}); err != nil {
		return err
	}
	// Every shard is parked crashed and every persister drained: the
	// directory is quiescent, so one scan serves all shards.
	snaps, skipped, err := n.store.LoadAll(n.cfg.Recover)
	if err != nil {
		return fmt.Errorf("cluster: %s: %w", n.id, err)
	}
	n.skippedSnaps.Add(uint64(skipped))
	byShard := make([][]persist.KeySnapshot, len(n.shards))
	for _, ks := range snaps {
		i := n.shardFor(ks.Key)
		byShard[i] = append(byShard[i], ks)
	}
	return n.restartPhase(func(s *shard) nodeEvent {
		return nodeEvent{kind: evRestore, snaps: byShard[s.idx]}
	})
}

// restartPhase posts one restart event to every shard, then collects
// every result. Posting everywhere before waiting anywhere keeps the
// phases concurrent across shards while the per-shard event order is
// preserved.
func (n *Node) restartPhase(ev func(*shard) nodeEvent) error {
	chans := make([]chan error, len(n.shards))
	for i, s := range n.shards {
		e := ev(s)
		e.restarted = make(chan error, 1)
		chans[i] = e.restarted
		select {
		case s.events <- e:
		case <-n.quit:
			return ErrStopped
		}
	}
	var errs []error
	for _, ch := range chans {
		select {
		case err := <-ch:
			if err != nil {
				errs = append(errs, err)
			}
		case <-n.quit:
			return ErrStopped
		}
	}
	return errors.Join(errs...)
}

// PersistErrors returns how many snapshot writes have failed. Each
// failure dropped the affected key's outbound messages and withheld its
// client completions for that event (degrading to message loss, which
// the protocol tolerates) rather than promising peers or clients state
// the disk does not hold.
func (n *Node) PersistErrors() uint64 {
	var v uint64
	for _, s := range n.shards {
		s.call(func() { v += s.persistErrs })
	}
	return v
}

// SkippedSnapshots returns how many corrupt snapshot files were skipped
// under persist.RecoverIgnoreCorrupt, across startup and every Restart.
// A nonzero value means those keys came up with less state than the disk
// once held and re-learned from the cluster; operators should surface it
// (crdtsmrd prints it at startup).
func (n *Node) SkippedSnapshots() uint64 {
	return n.skippedSnaps.Load()
}

// Close stops every shard's event loop and persister and detaches from
// the transport.
func (n *Node) Close() error {
	select {
	case <-n.quit:
		n.wg.Wait()
		return nil
	default:
	}
	close(n.quit)
	n.wg.Wait()
	return n.conn.Close()
}

// handleInbound runs on the transport's delivery goroutine. It decodes
// the object envelope and routes the frame to the owning shard's queue.
// It must never block: the same goroutine delivers replica-to-replica
// protocol traffic, so parking it on a full event queue would let one
// hot shard stall the replica wire cluster-wide (head-of-line blocking
// across planes). A full queue instead drops the frame and counts it —
// the transport is best-effort already, and retransmission recovers
// exactly as it does from network loss.
func (n *Node) handleInbound(from transport.NodeID, payload []byte) {
	key, inner, err := wire.UnpackEnvelope(payload)
	if err != nil {
		// Malformed frame: drop, per the unreliable-network model, but
		// keep it visible in Counters — a peer speaking a different
		// wire format would otherwise be undiagnosable.
		n.malformedFrames.Add(1)
		return
	}
	s := n.shardOf(key)
	select {
	case s.events <- nodeEvent{kind: evInbound, from: from, key: key, payload: inner}:
	case <-n.quit:
	default:
		n.inboundDropped.Add(1)
	}
}

// String renders the node for logs.
func (n *Node) String() string { return fmt.Sprintf("node(%s)", n.id) }
