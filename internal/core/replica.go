package core

import (
	"errors"
	"fmt"

	"crdtsmr/internal/crdt"
	"crdtsmr/internal/transport"
)

// Options configure optional protocol behaviours.
type Options struct {
	// Lease enables the §3.6 prepare-skip fast path (docs/PROTOCOL.md §5):
	// after a query learns with every quorum member agreeing on the round,
	// the proposer records a round lease and subsequent queries go straight
	// to the vote phase. Any NACK, lease steal, peer-failure signal, or
	// restart falls back to the unmodified two-phase protocol, so the
	// option changes round trips, never outcomes.
	Lease bool
}

// DefaultOptions match the configuration evaluated in the paper (§4):
// the §3.6 bandwidth optimizations on, GLA-Stability maintained, and the
// §3.6 prepare-skip round lease enabled.
func DefaultOptions() Options {
	return Options{Lease: true}
}

// Envelope is an outbound protocol message for the runtime to transmit.
type Envelope struct {
	To      transport.NodeID
	Payload []byte
}

// ErrAborted is reported to completion callbacks when a request is
// abandoned by Abort (e.g. client timeout or node shutdown).
var ErrAborted = errors.New("core: request aborted")

// Replica is one protocol participant implementing both roles of
// Algorithm 2: proposer (processes client commands) and acceptor
// (replicated storage).
//
// Replica is NOT safe for concurrent use. All methods must be called from
// a single goroutine ("serial processes", §3.2); internal/cluster provides
// the event loop. After any call, the runtime must drain TakeOutbox and
// transmit the envelopes.
type Replica struct {
	id     transport.NodeID
	cfg    Config             // current configuration (epoch, source, members)
	peers  []transport.NodeID // remote members only (excludes id), derived from cfg
	quorum int                // majority of cfg.Members, derived from cfg
	member bool               // whether id ∈ cfg.Members, derived from cfg
	opts   Options

	// reconfig is the in-flight reconfiguration round this replica
	// proposed, nil when none. At most one per replica: a second proposal
	// before commit returns ErrReconfigInFlight.
	reconfig *reconfigReq

	acc  acceptor
	xfer transferState // digest/delta bookkeeping of states at or above largeState

	// lease is the round lease of the prepare-skip fast path, nil when no
	// lease is held. It is deliberately volatile: never snapshotted, and
	// dropped on ForgetPeer — a restarted or partitioned replica must
	// re-earn its lease through a full quorum read (docs/PROTOCOL.md §5).
	lease *leaseState

	nextReq  uint64
	reqCeil  uint64 // request IDs up to here are reserved durably (see newReqID)
	nextSeq  uint64
	version  uint64 // the proposer's durable transitions (see StateVersion)
	updates  map[uint64]*updateReq
	queries  map[uint64]*queryReq
	learned  crdt.State // largest learned state (GLA-Stability, §3.4)
	outbox   []Envelope
	counters Counters

	// retired is the most recent update that answered its client at
	// quorum with MERGEDs still outstanding. Late MERGEDs matching it
	// keep updating the per-peer views (so the slower peers still earn
	// digest/delta MERGEs) without retaining unbounded per-command state
	// — a single slot, overwritten by the next such update.
	retired *updateReq
}

// Counters aggregates protocol-level statistics across all requests
// processed by this replica.
type Counters struct {
	Updates            uint64 // completed updates
	Queries            uint64 // completed queries
	ConsistentQuorum   uint64 // queries learned by consistent quorum
	ByVote             uint64 // queries learned by vote
	Retries            uint64 // query retry attempts
	StaleMsgs          uint64 // messages for unknown/stale requests
	MalformedMsgs      uint64 // messages that failed to decode or merge
	PreparesAccepted   uint64 // acceptor-side ACKs sent
	PreparesRejected   uint64 // acceptor-side NACKs to prepares
	VotesAccepted      uint64 // acceptor-side VOTED sent
	VotesRejected      uint64 // acceptor-side NACKs to votes
	IncrementalPrepare uint64 // prepares issued with ⊥ number
	FixedPrepare       uint64 // prepares issued with a concrete number
	DigestReplies      uint64 // ACK/NACK replies sent digest-only (payload suppressed)
	DigestMerges       uint64 // MERGE messages sent digest-only
	DeltaMerges        uint64 // MERGE messages sent as deltas
	MergeFallbacks     uint64 // full-payload resends after a MERGE-NACK
	LeaseHits          uint64 // queries learned via the prepare-skip fast path
	LeaseFallbacks     uint64 // leased attempts that fell back to a full prepare
	EpochNacks         uint64 // messages refused for a mismatched config epoch
	ConfigAdoptions    uint64 // configurations adopted (reconfigs, pushes, nacks)
	ReconfigCommits    uint64 // reconfiguration rounds this replica committed as proposer

	// Runtime-level overload counters. The replica itself never sets
	// them; the cluster runtime fills them into its aggregated snapshot
	// (like the node's malformed-frame count rides MalformedMsgs).
	InboundDropped uint64 // inbound replica frames dropped on a full event queue
	BudgetDelayed  uint64 // always 0: there is no link budget; kept for the benchmark's probe
}

// Add accumulates o into c, field by field. Runtimes aggregating many
// replicas (e.g. a multi-object node) use it so the aggregation stays next
// to the struct definition and cannot miss newly added fields.
func (c *Counters) Add(o Counters) {
	c.Updates += o.Updates
	c.Queries += o.Queries
	c.ConsistentQuorum += o.ConsistentQuorum
	c.ByVote += o.ByVote
	c.Retries += o.Retries
	c.StaleMsgs += o.StaleMsgs
	c.MalformedMsgs += o.MalformedMsgs
	c.PreparesAccepted += o.PreparesAccepted
	c.PreparesRejected += o.PreparesRejected
	c.VotesAccepted += o.VotesAccepted
	c.VotesRejected += o.VotesRejected
	c.IncrementalPrepare += o.IncrementalPrepare
	c.FixedPrepare += o.FixedPrepare
	c.DigestReplies += o.DigestReplies
	c.DigestMerges += o.DigestMerges
	c.DeltaMerges += o.DeltaMerges
	c.MergeFallbacks += o.MergeFallbacks
	c.LeaseHits += o.LeaseHits
	c.LeaseFallbacks += o.LeaseFallbacks
	c.EpochNacks += o.EpochNacks
	c.ConfigAdoptions += o.ConfigAdoptions
	c.ReconfigCommits += o.ReconfigCommits
	c.InboundDropped += o.InboundDropped
	c.BudgetDelayed += o.BudgetDelayed
}

// NewReplica creates a protocol participant at the initial configuration
// (epoch 0). id must appear in members, which lists the full cluster once
// each (the quorum system is majority over members — a repeated id would
// raise the quorum without adding a node to meet it). The list is kept in
// the order given: flush offsets index into it. s0 is the initial payload
// state, identical on every replica.
func NewReplica(id transport.NodeID, members []transport.NodeID, s0 crdt.State, opts Options) (*Replica, error) {
	if !contains(members, id) {
		return nil, fmt.Errorf("core: replica %s not in member list %v", id, members)
	}
	if _, err := normalizeMembers(members); err != nil {
		return nil, err
	}
	return NewReplicaConfig(id, Config{Members: members}, s0, opts)
}

// NewReplicaConfig creates a protocol participant seeded with an explicit
// configuration — a later epoch on a node that already adopted one, or an
// empty member set for a joining replica. A replica whose id is not in
// cfg.Members starts as a non-member: it refuses client commands
// (ErrNotMember) and serves no quorums, but accepts configuration pushes,
// which is exactly how a joiner waits to be reconfigured in
// (docs/ARCHITECTURE.md, "Reconfiguration lifecycle").
func NewReplicaConfig(id transport.NodeID, cfg Config, s0 crdt.State, opts Options) (*Replica, error) {
	if s0 == nil {
		return nil, errors.New("core: nil initial state")
	}
	r := &Replica{
		id:      id,
		opts:    opts,
		acc:     newAcceptor(s0),
		xfer:    newTransferState(),
		updates: make(map[uint64]*updateReq),
		queries: make(map[uint64]*queryReq),
		learned: s0,
	}
	r.setConfig(cfg)
	return r, nil
}

// setConfig installs cfg and re-derives everything membership determines:
// the remote peer list, the quorum size, and whether this replica is a
// member at all. Callers handle in-flight request migration.
func (r *Replica) setConfig(cfg Config) {
	r.cfg = cfg
	r.peers = r.peers[:0]
	for _, m := range cfg.Members {
		if m != r.id {
			r.peers = append(r.peers, m)
		}
	}
	r.quorum = majority(cfg.Members)
	r.member = contains(cfg.Members, r.id)
}

// ForgetPeer drops every digest/delta transfer assumption held about the
// given peer: the last state it acknowledged (delta baselines) and the
// digests of its states held here. The runtime calls it when it
// declares a peer down; the caches repopulate as traffic resumes, and a
// stale assumption would anyway only cost a MERGE-NACK round trip, never
// correctness.
func (r *Replica) ForgetPeer(peer transport.NodeID) {
	r.xfer.forget(peer)
	// A peer declared down is a membership-health signal: drop the round
	// lease so the next query re-proves its round through a full quorum
	// read rather than fast-pathing on possibly partitioned state. Purely
	// a liveness choice — a stale lease would only cost NACKs — but it
	// keeps fast-path behaviour predictable across failures.
	r.lease = nil
}

// ID returns the replica's node ID.
func (r *Replica) ID() transport.NodeID { return r.id }

// Quorum returns the quorum size (majority of the current member set).
func (r *Replica) Quorum() int { return r.quorum }

// Epoch returns the replica's current configuration epoch.
func (r *Replica) Epoch() uint64 { return r.cfg.Epoch }

// ConfigState returns a copy of the replica's current configuration.
func (r *Replica) ConfigState() Config {
	members := make([]transport.NodeID, len(r.cfg.Members))
	copy(members, r.cfg.Members)
	return Config{Epoch: r.cfg.Epoch, Source: r.cfg.Source, Members: members}
}

// IsMember reports whether this replica belongs to the current member
// set. A non-member (a joiner awaiting its first committed epoch, or a
// node a reconfiguration removed) refuses client commands.
func (r *Replica) IsMember() bool { return r.member }

// LocalState returns the local acceptor's current payload. It reflects
// only this replica's view and is NOT linearizable; use SubmitQuery for
// linearizable reads.
func (r *Replica) LocalState() crdt.State { return r.acc.state }

// Counters returns a snapshot of the protocol counters.
func (r *Replica) Counters() Counters { return r.counters }

// TakeOutbox returns and clears the outbound envelopes produced since the
// last call. The runtime must transmit them (best effort).
func (r *Replica) TakeOutbox() []Envelope {
	out := r.outbox
	r.outbox = nil
	return out
}

// InFlight returns the number of client requests not yet completed,
// counting a pending reconfiguration as one.
func (r *Replica) InFlight() int {
	n := len(r.updates) + len(r.queries)
	if r.reconfig != nil {
		n++
	}
	return n
}

// Pending reports whether the given request is still in flight.
func (r *Replica) Pending(reqID uint64) bool {
	if _, ok := r.updates[reqID]; ok {
		return true
	}
	if _, ok := r.queries[reqID]; ok {
		return true
	}
	return r.reconfig != nil && r.reconfig.id == reqID
}

func (r *Replica) send(to transport.NodeID, m *message) {
	r.sendAll([]transport.NodeID{to}, m)
}

// broadcast queues m for every peer.
func (r *Replica) broadcast(m *message) {
	r.sendAll(r.peers, m)
}

// sendAll queues m for every recipient, encoding it once: the bytes stay
// on m, so sending m again — to the next peer of a per-peer loop — shares
// them. Envelope payloads are read-only from here on (the runtimes copy
// them into a wire envelope or decode them), so sharing one buffer is safe.
func (r *Replica) sendAll(to []transport.NodeID, m *message) {
	if m.wire == nil {
		// Every outbound message is stamped with the current config epoch,
		// so receivers can refuse traffic from a stale configuration
		// before it reaches the protocol handlers (docs/PROTOCOL.md §6).
		m.Epoch = r.cfg.Epoch
		p, err := m.encode()
		if err != nil {
			// Encoding fails only for unmarshalable states — a programming
			// error in the payload type. Dropping the message degrades to a
			// lost message, which the protocol tolerates.
			r.counters.MalformedMsgs++
			return
		}
		m.wire = p
	}
	for _, id := range to {
		r.outbox = append(r.outbox, Envelope{To: id, Payload: m.wire})
	}
}

// Deliver processes one inbound protocol message. Malformed messages are
// dropped (counted), matching the unreliable-network model.
func (r *Replica) Deliver(from transport.NodeID, payload []byte) {
	m, err := decodeMessage(payload)
	if err != nil {
		r.counters.MalformedMsgs++
		return
	}
	r.observe(m)
	// Configuration traffic is handled before the epoch gate: it is the
	// anti-entropy channel that repairs epoch mismatches.
	switch m.Type {
	case msgReconfig:
		r.onReconfig(from, m)
		return
	case msgReconfigAck:
		r.onReconfigAck(from, m)
		return
	case msgEpochNack:
		r.onEpochNack(from, m)
		return
	}
	if m.Epoch != r.cfg.Epoch {
		// Stale- or future-epoch traffic never reaches the protocol: a
		// quorum counted across configurations would not be a quorum of
		// either. The two sides converge instead — a sender behind us gets
		// our config pushed (with the full payload: the log-free bootstrap
		// in one message); a sender ahead of us is told our config so it
		// pushes its own back.
		r.counters.EpochNacks++
		if m.Epoch < r.cfg.Epoch {
			r.sendReconfig(from, m.Req)
		} else {
			r.sendEpochNack(from, m.Req)
		}
		return
	}
	switch m.Type {
	case msgMerge:
		r.onMerge(from, m)
	case msgMerged:
		r.onMerged(from, m)
	case msgPrepare:
		r.onPrepare(from, m)
	case msgAck:
		r.onAck(from, m)
	case msgVote:
		r.onVote(from, m)
	case msgVoted:
		r.onVoted(from, m)
	case msgNack:
		r.onNack(from, m)
	case msgMergeNack:
		r.onMergeNack(from, m)
	}
}

// Abort abandons an in-flight request; its completion callback fires with
// ErrAborted. Aborting an unknown (e.g. already completed) request is a
// no-op.
func (r *Replica) Abort(reqID uint64) {
	if req, ok := r.updates[reqID]; ok {
		// The client gives up, but the payload must still reach every peer.
		r.retire(req, len(req.acked))
		if req.done != nil {
			req.done(UpdateStats{}, ErrAborted)
		}
		return
	}
	if req, ok := r.queries[reqID]; ok {
		delete(r.queries, reqID)
		if req.done != nil {
			req.done(nil, QueryStats{RoundTrips: req.rtts, Attempts: int(req.attempt)}, ErrAborted)
		}
		return
	}
	if r.reconfig != nil && r.reconfig.id == reqID {
		req := r.reconfig
		r.reconfig = nil
		// The adopted config stays — epochs only move forward — but the
		// proposer stops driving the round; anti-entropy (config pushes on
		// epoch mismatch) still spreads it.
		if req.done != nil {
			req.done(ErrAborted)
		}
	}
}
