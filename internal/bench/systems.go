package bench

import (
	"context"
	"fmt"
	"time"

	"crdtsmr/internal/cluster"
	"crdtsmr/internal/core"
	"crdtsmr/internal/crdt"
	"crdtsmr/internal/paxos"
	"crdtsmr/internal/raft"
	"crdtsmr/internal/rsm"
	"crdtsmr/internal/transport"
)

// Client is one closed-loop benchmark client bound to a replica.
type Client interface {
	// Inc submits one increment and blocks until it completes.
	Inc(ctx context.Context) error
	// Read submits one linearizable read and blocks for the value and the
	// number of protocol round trips it took (0 if the system does not
	// report round trips).
	Read(ctx context.Context) (value int64, rtts int, err error)
}

// System is a replicated counter deployment under benchmark.
type System interface {
	Name() string
	// Client returns the i-th client's handle; clients are spread evenly
	// across replicas (the paper's load distribution).
	Client(i int) Client
	// Crash takes down one replica (Figure 4).
	Crash(replica int)
	// Recover brings it back.
	Recover(replica int)
	Close()
}

// NetProfile configures the emulated network.
type NetProfile struct {
	MinDelay time.Duration
	MaxDelay time.Duration
	Seed     int64
}

// LANProfile approximates the paper's 10 Gbit/s cluster interconnect:
// tens of microseconds per message hop, so a protocol round trip costs
// 40-160 µs — small against the 5 ms batching window, as on the paper's
// testbed.
func LANProfile() NetProfile {
	return NetProfile{MinDelay: 20 * time.Microsecond, MaxDelay: 80 * time.Microsecond, Seed: 1}
}

func (p NetProfile) mesh() *transport.Mesh {
	opts := []transport.MeshOption{transport.WithSeed(p.Seed)}
	if p.MaxDelay > 0 {
		opts = append(opts, transport.WithDelay(p.MinDelay, p.MaxDelay))
	}
	return transport.NewMesh(opts...)
}

func members(n int) []transport.NodeID {
	out := make([]transport.NodeID, n)
	for i := range out {
		out[i] = transport.NodeID(fmt.Sprintf("n%d", i+1))
	}
	return out
}

// --- CRDT Paxos (this paper) ---

// CRDTOpts configures a CRDTSystem beyond the paper's defaults. The zero
// value is the volatile, unbatched deployment of §4.
type CRDTOpts struct {
	// Batch enables §3.6 batching (the paper evaluates 5 ms).
	Batch time.Duration
	// Protocol overrides core.DefaultOptions() when non-nil; the lease
	// figure sets it.
	Protocol *core.Options
}

// CRDTSystem runs the paper's protocol on one replicated G-Counter.
// Client i attaches to replica i mod replicas, spreading clients evenly.
type CRDTSystem struct {
	name  string
	mesh  *transport.Mesh
	clust *cluster.Cluster
	ids   []transport.NodeID
	cfg   cluster.Config // kept for starting joiners (FigureMembers)
}

// NewCRDTSystem starts the paper's protocol over n replicas.
func NewCRDTSystem(n int, o CRDTOpts, net NetProfile) (*CRDTSystem, error) {
	name := "CRDT Paxos"
	if o.Batch > 0 {
		name += fmt.Sprintf(" w/batching(%s)", o.Batch)
	}
	protocol := core.DefaultOptions()
	if o.Protocol != nil {
		protocol = *o.Protocol
	}
	mesh := net.mesh()
	ids := members(n)
	cfg := cluster.Config{
		Members:       ids,
		Initial:       crdt.NewGCounter(),
		Options:       protocol,
		BatchInterval: o.Batch,
		// The retransmit timeout doubles as the vote-grace period when a
		// crashed acceptor leaves a denied vote undecidable (Figure 4);
		// keep it a small multiple of the protocol round trip.
		RetransmitInterval: 10 * time.Millisecond,
	}
	clust, err := cluster.New(mesh, cfg)
	if err != nil {
		mesh.Close()
		return nil, err
	}
	return &CRDTSystem{name: name, mesh: mesh, clust: clust, ids: ids, cfg: cfg}, nil
}

// Name implements System.
func (s *CRDTSystem) Name() string { return s.name }

// Client implements System.
func (s *CRDTSystem) Client(i int) Client {
	at := s.ids[i%len(s.ids)]
	return &crdtClient{node: s.clust.Node(at), slot: string(at)}
}

// Pinned returns a view of the system whose clients all attach to one
// replica instead of spreading across the cluster. The lease figure uses
// it: a round lease belongs to a single proposer, so the fast path only
// shows when the read load stays put.
func (s *CRDTSystem) Pinned(replica int) System {
	return &pinnedSystem{CRDTSystem: s, replica: replica}
}

type pinnedSystem struct {
	*CRDTSystem
	replica int
}

// Client implements System: every client index maps to the pinned replica.
func (p *pinnedSystem) Client(int) Client { return p.CRDTSystem.Client(p.replica) }

// Grow starts a fresh joiner on the mesh and reconfigures it into the
// member group from an existing member, returning once the round commits
// under the joint quorum. The joiner's state bootstrap is the
// reconfiguration push itself (FigureMembers).
func (s *CRDTSystem) Grow(ctx context.Context, id transport.NodeID) error {
	if _, err := s.clust.AddNode(id, s.cfg); err != nil {
		return err
	}
	proposer := s.clust.Node(s.ids[0])
	return proposer.Reconfigure(ctx, append(proposer.Members(), id))
}

// Shrink reconfigures the given member out of the group, proposing from a
// surviving boot member. The removed node keeps running and refusing
// commands — clients bound to it fail over, which is the behaviour the
// members figure measures.
func (s *CRDTSystem) Shrink(ctx context.Context, id transport.NodeID) error {
	var proposer *cluster.Node
	for _, nid := range s.ids {
		if nid != id {
			proposer = s.clust.Node(nid)
			break
		}
	}
	if proposer == nil {
		return fmt.Errorf("bench: no surviving proposer to remove %s", id)
	}
	var target []transport.NodeID
	for _, m := range proposer.Members() {
		if m != id {
			target = append(target, m)
		}
	}
	return proposer.Reconfigure(ctx, target)
}

// Counters sums the protocol counters across all replicas.
func (s *CRDTSystem) Counters() core.Counters {
	var sum core.Counters
	for _, node := range s.clust.Nodes() {
		sum.Add(node.Counters())
	}
	return sum
}

// Crash implements System.
func (s *CRDTSystem) Crash(replica int) { s.clust.Crash(s.ids[replica%len(s.ids)]) }

// Recover implements System.
func (s *CRDTSystem) Recover(replica int) { s.clust.Recover(s.ids[replica%len(s.ids)]) }

// Close implements System.
func (s *CRDTSystem) Close() {
	s.clust.Close()
	s.mesh.Close()
}

type crdtClient struct {
	node *cluster.Node
	slot string
}

func (c *crdtClient) Inc(ctx context.Context) error {
	_, err := c.node.Update(ctx, func(s crdt.State) (crdt.State, error) {
		return s.(*crdt.GCounter).Inc(c.slot, 1), nil
	})
	return err
}

func (c *crdtClient) Read(ctx context.Context) (int64, int, error) {
	s, stats, err := c.node.Query(ctx)
	if err != nil {
		return 0, 0, err
	}
	return int64(s.(*crdt.GCounter).Value()), stats.RoundTrips, nil
}

// --- log-based baselines (Raft, Multi-Paxos) ---

// logElectionTimeout is the baselines' leader-liveness timeout; the
// Multi-Paxos read lease spans four of them.
const logElectionTimeout = 100 * time.Millisecond

// LogSystem runs a log-based baseline on a replicated integer: n replicas
// of one protocol, each driven by an rsm.Node on the wall clock.
type LogSystem struct {
	name  string
	mesh  *transport.Mesh
	nodes []*rsm.Node
}

// NewRaftSystem starts a Raft cluster of n replicas. The paper's Raft
// baseline appends consistent reads to the log.
func NewRaftSystem(n int, net NetProfile) (*LogSystem, error) {
	return newLogSystem("Raft", n, net, func(id transport.NodeID, ids []transport.NodeID) (rsm.Replica, error) {
		return raft.NewReplica(id, ids, rsm.NewCounter())
	})
}

// NewPaxosSystem starts a Multi-Paxos cluster of n replicas; reads go
// through the lease fast path at the leader.
func NewPaxosSystem(n int, net NetProfile) (*LogSystem, error) {
	return newLogSystem("Multi-Paxos", n, net, func(id transport.NodeID, ids []transport.NodeID) (rsm.Replica, error) {
		rep, err := paxos.NewReplica(id, ids, rsm.NewCounter())
		if err != nil {
			return nil, err
		}
		rep.LeaseDuration = 4 * logElectionTimeout
		return rep, nil
	})
}

func newLogSystem(name string, n int, net NetProfile, newReplica func(id transport.NodeID, ids []transport.NodeID) (rsm.Replica, error)) (*LogSystem, error) {
	s := &LogSystem{name: name, mesh: net.mesh()}
	ids := members(n)
	for _, id := range ids {
		rep, err := newReplica(id, ids)
		if err != nil {
			s.Close()
			return nil, err
		}
		s.nodes = append(s.nodes, rsm.NewNode(rep, rsm.Config{ElectionTimeout: logElectionTimeout},
			func(id transport.NodeID, h transport.Handler) transport.Conn { return s.mesh.Join(id, h) }))
	}
	return s, nil
}

// Name implements System.
func (s *LogSystem) Name() string { return s.name }

// Client implements System.
func (s *LogSystem) Client(i int) Client { return logClient{node: s.nodes[i%len(s.nodes)]} }

// Crash implements System.
func (s *LogSystem) Crash(replica int) {
	node := s.nodes[replica%len(s.nodes)]
	s.mesh.SetDown(node.ID(), true)
	node.SetCrashed(true)
}

// Recover implements System.
func (s *LogSystem) Recover(replica int) {
	node := s.nodes[replica%len(s.nodes)]
	s.mesh.SetDown(node.ID(), false)
	node.SetCrashed(false)
}

// Close implements System.
func (s *LogSystem) Close() {
	for _, node := range s.nodes {
		_ = node.Close()
	}
	s.mesh.Close()
}

type logClient struct {
	node *rsm.Node
}

func (c logClient) Inc(ctx context.Context) error {
	_, err := c.node.Execute(ctx, rsm.EncodeInc(1))
	return err
}

func (c logClient) Read(ctx context.Context) (int64, int, error) {
	res, err := c.node.Read(ctx, rsm.EncodeRead())
	if err != nil {
		return 0, 0, err
	}
	v, err := rsm.DecodeValue(res)
	return v, 0, err
}
