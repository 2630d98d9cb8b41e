// Package crdtsmr is the public facade of the repository: linearizable
// state machine replication of state-based CRDTs without logs or leaders,
// implementing Skrzypczak, Schintke, Schütt (PODC 2019).
//
// A Cluster replicates a keyspace of CRDT objects over N nodes. Updates
// complete in a single round trip by broadcasting merged state;
// linearizable reads use the paper's lattice-agreement query protocol (one
// round trip on a quiet replica set, two under contention, with retries
// only on conflicts). There is no leader to elect and no command log to
// truncate: each replica's protocol state beyond the payload itself is a
// single round counter per object.
//
// Quickstart (single object):
//
//	cl, _ := crdtsmr.NewLocalCluster(3, crdtsmr.NewGCounter())
//	defer cl.Close()
//	ctr := cl.Counter("n1")             // handle bound to replica n1
//	_ = ctr.Inc(ctx, 1)                 // linearizable update, 1 round trip
//	v, _ := ctr.Value(ctx)              // linearizable read
//
// Multi-object store: because the protocol keeps no cross-command log,
// replication instances compose per key — every key is an independent
// lightweight SMR group sharing the node's event loop and connection, with
// no ordering machinery between keys. Object(key) addresses one of them;
// objects are instantiated lazily on first touch and each key is
// linearizable independently:
//
//	cl, _ := crdtsmr.NewLocalCluster(3, crdtsmr.NewGCounter())
//	views := cl.Object("article/42").Counter("n1")
//	_ = views.Inc(ctx, 1)               // independent of every other key
//	v, _ := cl.Object("article/42").Counter("n3").Value(ctx)
//
// Keys default to fresh zero values of the cluster's payload type; use
// WithObjectInitial to give chosen keys different CRDT types (counters,
// sets, and registers can share one cluster).
//
// To reach a served cluster over the network instead, use the public
// client package crdtsmr/client (docs/CLIENT.md); cmd/crdtsmrd is the
// daemon it talks to. The packages under internal/ hold the
// implementation: the protocol (internal/core), the CRDT library
// (internal/crdt), transports (internal/transport), the runtime
// (internal/cluster, which also owns the keyspace: per-key replicas on
// key-hashed event-loop shards), the network serving layer
// (internal/server — see docs/PROTOCOL.md for the wire format), the
// Multi-Paxos and Raft baselines, the correctness checker, and the
// benchmark harness. For a map from the paper's sections to the
// packages, see docs/ARCHITECTURE.md.
package crdtsmr

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"crdtsmr/internal/cluster"
	"crdtsmr/internal/core"
	"crdtsmr/internal/crdt"
	"crdtsmr/internal/transport"
)

// Re-exported core types, so downstream code only imports this package.
type (
	// State is a CRDT payload: an element of a join semilattice.
	State = crdt.State
	// Update is a monotone update function applied at the local replica.
	Update = crdt.Update
	// NodeID identifies a replica.
	NodeID = transport.NodeID
	// QueryStats describes how a read was processed (round trips, path).
	QueryStats = core.QueryStats
	// GCounter is the grow-only counter of the paper's Algorithm 1.
	GCounter = crdt.GCounter
	// PNCounter supports increments and decrements.
	PNCounter = crdt.PNCounter
	// ORSet is an observed-remove (add-wins) set.
	ORSet = crdt.ORSet
	// LWWRegister is a last-writer-wins register.
	LWWRegister = crdt.LWWRegister
)

// Constructors for the common payloads.
var (
	// NewGCounter returns a zero grow-only counter.
	NewGCounter = crdt.NewGCounter
	// NewPNCounter returns a zero increment/decrement counter.
	NewPNCounter = crdt.NewPNCounter
	// NewORSet returns an empty observed-remove set.
	NewORSet = crdt.NewORSet
	// NewLWWRegister returns an unwritten last-writer-wins register.
	NewLWWRegister = crdt.NewLWWRegister
)

// DefaultKey is the object key the single-object API (Update, Query,
// Counter, Set) operates on.
const DefaultKey = cluster.DefaultKey

// Option configures a cluster.
type Option func(*options)

type options struct {
	batch         time.Duration
	meshDelay     [2]time.Duration
	seed          int64
	initialForKey func(key string) State
}

// WithBatching enables per-replica command batching (§3.6 of the paper),
// applied per key; the paper's evaluation uses 5 ms windows.
func WithBatching(window time.Duration) Option {
	return func(o *options) { o.batch = window }
}

// WithNetworkDelay emulates per-message network delay between replicas of
// a local cluster.
func WithNetworkDelay(min, max time.Duration) Option {
	return func(o *options) { o.meshDelay = [2]time.Duration{min, max} }
}

// WithSeed fixes the emulated network's RNG seed.
func WithSeed(seed int64) Option {
	return func(o *options) { o.seed = seed }
}

// WithObjectInitial sets the initial payload per object key, letting keys
// hold different CRDT types. The function must be deterministic (every
// replica evaluates it independently when a key is first touched);
// returning nil rejects the key. Keys it does not special-case should
// return a fresh zero payload of the desired type.
func WithObjectInitial(initial func(key string) State) Option {
	return func(o *options) { o.initialForKey = initial }
}

// Cluster is a running replica group serving a keyspace of CRDT objects.
type Cluster struct {
	mesh  *transport.Mesh
	clust *cluster.Cluster
	ids   []NodeID
	// seq numbers the or-set add tags of every handle. Like the server's,
	// it is seeded from the wall clock, so tags of different clusters
	// differ too.
	seq atomic.Uint64
}

// NewLocalCluster starts n replicas in this process connected by an
// emulated network. initial is the payload of the default object and the
// payload type fresh keys start from. Replica IDs are "n1".."nN".
func NewLocalCluster(n int, initial State, opts ...Option) (*Cluster, error) {
	if n <= 0 {
		return nil, fmt.Errorf("crdtsmr: need at least one replica, got %d", n)
	}
	var o options
	o.seed = 1
	for _, opt := range opts {
		opt(&o)
	}
	meshOpts := []transport.MeshOption{transport.WithSeed(o.seed)}
	if o.meshDelay[1] > 0 {
		meshOpts = append(meshOpts, transport.WithDelay(o.meshDelay[0], o.meshDelay[1]))
	}
	mesh := transport.NewMesh(meshOpts...)
	ids := make([]NodeID, n)
	for i := range ids {
		ids[i] = NodeID(fmt.Sprintf("n%d", i+1))
	}
	clust, err := cluster.New(mesh, cluster.Config{
		Members:       ids,
		Initial:       initial,
		InitialForKey: o.initialForKey,
		Options:       core.DefaultOptions(),
		BatchInterval: o.batch,
	})
	if err != nil {
		mesh.Close()
		return nil, err
	}
	c := &Cluster{mesh: mesh, clust: clust, ids: ids}
	c.seq.Store(uint64(time.Now().UnixNano()))
	return c, nil
}

// NodeIDs returns the replica IDs in order.
func (c *Cluster) NodeIDs() []NodeID { return append([]NodeID(nil), c.ids...) }

// Update applies a monotone update function to the default object at the
// named replica and waits for it to be durable on a quorum (one round
// trip).
func (c *Cluster) Update(ctx context.Context, at NodeID, fu Update) error {
	return c.Object(DefaultKey).Update(ctx, at, fu)
}

// Query learns a linearizable state of the default object at the named
// replica.
func (c *Cluster) Query(ctx context.Context, at NodeID) (State, QueryStats, error) {
	return c.Object(DefaultKey).Query(ctx, at)
}

// Keys returns the object keys instantiated at the named replica, sorted
// (the default object is key "").
func (c *Cluster) Keys(at NodeID) []string {
	n := c.clust.Node(at)
	if n == nil {
		return nil
	}
	return n.Keys()
}

// Crash simulates a crash of the named replica; its state is retained
// (crash-recovery model).
func (c *Cluster) Crash(id NodeID) { c.clust.Crash(id) }

// Recover brings a crashed replica back.
func (c *Cluster) Recover(id NodeID) { c.clust.Recover(id) }

// Close stops every replica.
func (c *Cluster) Close() {
	c.clust.Close()
	c.mesh.Close()
}

// node resolves the replica a command names.
func (c *Cluster) node(at NodeID) (*cluster.Node, error) {
	if n := c.clust.Node(at); n != nil {
		return n, nil
	}
	return nil, fmt.Errorf("crdtsmr: unknown replica %s", at)
}

// Object addresses one key of the cluster's keyspace. Each key is an
// independent replication instance: linearizable on its own, ordered with
// no other key, instantiated on first touch.
func (c *Cluster) Object(key string) *Object {
	return &Object{c: c, key: key}
}

// Object is a handle on one replicated CRDT object of the keyspace.
type Object struct {
	c   *Cluster
	key string
}

// Key returns the object's key.
func (o *Object) Key() string { return o.key }

// Update applies a monotone update function to this object at the named
// replica (one round trip).
func (o *Object) Update(ctx context.Context, at NodeID, fu Update) error {
	n, err := o.c.node(at)
	if err != nil {
		return err
	}
	_, err = n.UpdateKey(ctx, o.key, fu)
	return err
}

// Query learns a linearizable state of this object at the named replica.
func (o *Object) Query(ctx context.Context, at NodeID) (State, QueryStats, error) {
	n, err := o.c.node(at)
	if err != nil {
		return nil, QueryStats{}, err
	}
	return n.QueryKey(ctx, o.key)
}

// Counter returns a typed G-Counter handle on this object, bound to the
// given replica.
func (o *Object) Counter(at NodeID) *Counter {
	return &Counter{obj: o, at: at}
}

// Set returns a typed OR-Set handle on this object, bound to the given
// replica.
func (o *Object) Set(at NodeID) *Set {
	return &Set{obj: o, at: at}
}

// Register returns a typed last-writer-wins register handle on this
// object, bound to the given replica.
func (o *Object) Register(at NodeID) *Register {
	return &Register{obj: o, at: at}
}

// Counter returns a typed handle for the default object's G-Counter
// payload, bound to the given replica. All handle operations are
// linearizable. For keyed counters use Object(key).Counter(at).
func (c *Cluster) Counter(at NodeID) *Counter {
	return c.Object(DefaultKey).Counter(at)
}

// Counter is a typed client for a replicated G-Counter.
type Counter struct {
	obj *Object
	at  NodeID
}

// Inc increments the counter by n.
func (h *Counter) Inc(ctx context.Context, n uint64) error {
	slot := string(h.at)
	return h.obj.Update(ctx, h.at, func(s State) (State, error) {
		g, ok := s.(*GCounter)
		if !ok {
			return nil, fmt.Errorf("crdtsmr: payload of %q is %T, not a G-Counter", h.obj.key, s)
		}
		return g.Inc(slot, n), nil
	})
}

// Value reads the counter.
func (h *Counter) Value(ctx context.Context) (uint64, error) {
	s, _, err := h.obj.Query(ctx, h.at)
	if err != nil {
		return 0, err
	}
	g, ok := s.(*GCounter)
	if !ok {
		return 0, fmt.Errorf("crdtsmr: payload of %q is %T, not a G-Counter", h.obj.key, s)
	}
	return g.Value(), nil
}

// Set returns a typed handle for the default object's OR-Set payload bound
// to the given replica. For keyed sets use Object(key).Set(at).
func (c *Cluster) Set(at NodeID) *Set {
	return c.Object(DefaultKey).Set(at)
}

// Set is a typed client for a replicated observed-remove set.
type Set struct {
	obj *Object
	at  NodeID
}

// Add inserts an element (add-wins on concurrent removal). Its tag is the
// replica ID and a number from the cluster's counter, unique across every
// handle, so a re-add after a remove is never hidden by the remove's
// tombstones.
func (h *Set) Add(ctx context.Context, element string) error {
	seq := h.obj.c.seq.Add(1)
	return h.obj.Update(ctx, h.at, func(s State) (State, error) {
		set, ok := s.(*ORSet)
		if !ok {
			return nil, fmt.Errorf("crdtsmr: payload of %q is %T, not an OR-Set", h.obj.key, s)
		}
		return set.Add(element, string(h.at), seq), nil
	})
}

// Remove deletes the element's observed additions. It observes first: the
// payload of the replica it is bound to may lack an add another replica
// already acknowledged, so it learns the set with a linearizable query and
// removes what that saw. A remove therefore costs one more round trip than
// an add.
func (h *Set) Remove(ctx context.Context, element string) error {
	learned, _, err := h.obj.Query(ctx, h.at)
	if err != nil {
		return err
	}
	observed, ok := learned.(*ORSet)
	if !ok {
		return fmt.Errorf("crdtsmr: payload of %q is %T, not an OR-Set", h.obj.key, learned)
	}
	removed := observed.Remove(element)
	return h.obj.Update(ctx, h.at, func(s State) (State, error) {
		merged, err := s.Merge(removed)
		if err != nil {
			return nil, fmt.Errorf("crdtsmr: payload of %q is %T, not an OR-Set", h.obj.key, s)
		}
		return merged.(*ORSet).Remove(element), nil
	})
}

// Elements reads the membership, linearizably.
func (h *Set) Elements(ctx context.Context) ([]string, error) {
	s, _, err := h.obj.Query(ctx, h.at)
	if err != nil {
		return nil, err
	}
	set, ok := s.(*ORSet)
	if !ok {
		return nil, fmt.Errorf("crdtsmr: payload of %q is %T, not an OR-Set", h.obj.key, s)
	}
	return set.Elements(), nil
}

// Register is a typed client for a replicated last-writer-wins register.
type Register struct {
	obj *Object
	at  NodeID
}

// Store writes the register. Concurrent writes resolve last-writer-wins by
// wall-clock timestamp with the replica ID as tie-breaker.
func (h *Register) Store(ctx context.Context, value string) error {
	ts := uint64(time.Now().UnixNano())
	actor := string(h.at)
	return h.obj.Update(ctx, h.at, func(s State) (State, error) {
		reg, ok := s.(*LWWRegister)
		if !ok {
			return nil, fmt.Errorf("crdtsmr: payload of %q is %T, not an LWW-Register", h.obj.key, s)
		}
		return reg.Set(value, ts, actor), nil
	})
}

// Load reads the register, linearizably. ok is false if the register was
// never written.
func (h *Register) Load(ctx context.Context) (value string, ok bool, err error) {
	s, _, err := h.obj.Query(ctx, h.at)
	if err != nil {
		return "", false, err
	}
	reg, isReg := s.(*LWWRegister)
	if !isReg {
		return "", false, fmt.Errorf("crdtsmr: payload of %q is %T, not an LWW-Register", h.obj.key, s)
	}
	val, ts, _ := reg.Value()
	return val, ts != 0, nil
}
