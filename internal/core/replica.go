package core

import (
	"errors"
	"fmt"
	"sort"

	"crdtsmr/internal/crdt"
	"crdtsmr/internal/transport"
	"crdtsmr/internal/wire"
)

// Options configure optional protocol behaviours.
type Options struct {
	// Transfer selects the state-transfer strategy of the replica wire:
	// full payloads (the paper's format, the default), digest-suppressed
	// payloads, or deltas (docs/PROTOCOL.md §3). It changes only how many
	// bytes move, never what is learned.
	Transfer StateTransfer

	// Lease enables the §3.6 prepare-skip fast path (docs/PROTOCOL.md §5):
	// after a query learns with every quorum member agreeing on the round
	// and advertising the lease capability, the proposer records a round
	// lease and subsequent queries go straight to the vote phase. Any
	// NACK, lease steal, peer-failure signal, or restart falls back to the
	// unmodified two-phase protocol, so the option changes round trips,
	// never outcomes.
	Lease bool
}

// DefaultOptions match the configuration evaluated in the paper (§4):
// the §3.6 bandwidth optimizations on, GLA-Stability maintained, and the
// §3.6 prepare-skip round lease enabled.
func DefaultOptions() Options {
	return Options{Lease: true}
}

// LearnPath records how a query learned its state, for the round-trip
// distribution of Figure 3.
type LearnPath uint8

const (
	// LearnConsistentQuorum: a quorum of ACKs carried equivalent states;
	// the second phase was skipped (one round trip).
	LearnConsistentQuorum LearnPath = iota + 1
	// LearnVote: a quorum voted for the proposed LUB (two round trips).
	LearnVote
)

func (p LearnPath) String() string {
	switch p {
	case LearnConsistentQuorum:
		return "consistent-quorum"
	case LearnVote:
		return "vote"
	default:
		return fmt.Sprintf("LearnPath(%d)", uint8(p))
	}
}

// QueryStats describes how a completed query was processed.
type QueryStats struct {
	// RoundTrips counts message rounds the proposer initiated: each
	// PREPARE broadcast and each VOTE broadcast is one round trip.
	RoundTrips int
	// Attempts counts protocol attempts (1 = no retry).
	Attempts int
	// Path is the learn path of the final, successful attempt.
	Path LearnPath
	// Leased reports that the query took the prepare-skip fast path
	// (docs/PROTOCOL.md §5) and learned without falling back.
	Leased bool
}

// UpdateStats describes a completed update. Updates always take exactly one
// round trip (§3.2); the struct exists for symmetry and future extension.
type UpdateStats struct {
	RoundTrips int
}

// Envelope is an outbound protocol message for the runtime to transmit.
type Envelope struct {
	To      transport.NodeID
	Payload []byte
}

// UpdateDone is invoked exactly once when an update completes.
type UpdateDone func(UpdateStats, error)

// QueryDone is invoked exactly once when a query learns a state. The state
// must be treated as immutable.
type QueryDone func(crdt.State, QueryStats, error)

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
	xfer transferState // digest/delta bookkeeping (Transfer != TransferFull)

	// lease is the round lease of the prepare-skip fast path, nil when no
	// lease is held. It is deliberately volatile: never snapshotted, and
	// dropped on ForgetPeer — a restarted or partitioned replica must
	// re-earn its lease through a full quorum read (docs/PROTOCOL.md §5).
	lease *leaseState

	nextReq  uint64
	nextSeq  uint64
	version  uint64 // durable-state transition counter (see StateVersion)
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
	InboundDropped  uint64 // inbound replica frames dropped on a full event queue
	BudgetDelayed   uint64 // outbound envelopes delayed by a link's byte budget
	BudgetCoalesced uint64 // delayed envelopes superseded by a newer one for the same key
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
	c.BudgetCoalesced += o.BudgetCoalesced
}

// leaseState is the proposer-side record of a round lease: the last
// learned state and the round a full quorum confirmed as the highest
// established, with every member advertising the lease capability. The
// digest (kept under digest/delta transfer) lets a quiescent leased VOTE
// ship no payload at all.
type leaseState struct {
	round  Round
	state  crdt.State
	digest crdt.Digest
	hasDig bool
}

type updateReq struct {
	id      uint64
	state   crdt.State  // the merged payload broadcast in MERGE
	digest  crdt.Digest // digest of state (digest/delta transfer only)
	hasDig  bool
	round   Round // lease round the MERGE asks acceptors to preserve
	lease   bool  // this update was issued while holding the lease
	acked   map[transport.NodeID]bool
	done    UpdateDone
	pending int // remote MERGED replies still needed
}

type queryPhase uint8

const (
	phasePrepare queryPhase = iota + 1
	phaseVote
)

type queryReq struct {
	id      uint64
	attempt uint32
	phase   queryPhase

	round    Round                        // round of the current attempt (as sent)
	acks     map[transport.NodeID]ackInfo // ACKs of the current attempt
	votes    map[transport.NodeID]bool    // VOTED of the current attempt
	denials  map[transport.NodeID]bool    // vote-phase NACKs of the current attempt
	proposed crdt.State                   // state sent in VOTE
	gathered crdt.State                   // LUB of every payload seen (retry seed)

	// prepared is the local payload whose digest the current attempt's
	// PREPARE announced; digest-only ACK/NACK replies resolve to it
	// (digest equality is state equality).
	prepared    crdt.State
	preparedDig crdt.Digest
	hasPrepared bool

	// seed is the payload the current attempt's PREPARE carried, kept so
	// a retransmit can re-send the same attempt instead of burning it.
	seed crdt.State

	// leased marks an attempt running the prepare-skip fast path;
	// leasable/leaseRound accumulate whether the current attempt proved a
	// round quorum-established with every member lease-capable, making it
	// installable on completion.
	leased     bool
	leasable   bool
	leaseRound Round

	// propDig is the digest of the leased attempt's proposal
	// (digest/delta transfer only): it drives per-peer VOTE payload
	// suppression and, once a peer VOTEDs, records that peer's view.
	propDig    crdt.Digest
	hasPropDig bool

	rtts int
	done QueryDone
}

type ackInfo struct {
	round Round
	state crdt.State
	lease bool // the acceptor advertised the lease capability
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

// isPeer reports whether id is a configured remote peer. Digest and delta
// caches are only maintained for configured peers, which bounds them by
// the membership.
func (r *Replica) isPeer(id transport.NodeID) bool {
	for _, p := range r.peers {
		if p == id {
			return true
		}
	}
	return false
}

// ForgetPeer drops every digest/delta transfer assumption held about the
// given peer: the last state it acknowledged (delta baselines) and the
// digests of its MERGE payloads merged here. The runtime calls it when it
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

// Leased reports whether the replica currently holds a round lease.
func (r *Replica) Leased() bool { return r.lease != nil }

// DropLease relinquishes the round lease, if held. Runtimes call it on
// crash/partition signals; the next successful quorum read re-installs it.
func (r *Replica) DropLease() { r.lease = nil }

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

// sendAll encodes m once and queues the same bytes for every recipient.
// Envelope payloads are read-only from here on (the runtimes copy them
// into a wire envelope or decode them), so sharing one buffer is safe.
func (r *Replica) sendAll(to []transport.NodeID, m *message) {
	// Every outbound message is stamped with the current config epoch, so
	// receivers can refuse traffic from a stale configuration before it
	// reaches the protocol handlers (docs/PROTOCOL.md §6).
	m.Epoch = r.cfg.Epoch
	p, err := m.encode()
	if err != nil {
		// Encoding fails only for unmarshalable states — a programming
		// error in the payload type. Dropping the message degrades to a
		// lost message, which the protocol tolerates.
		r.counters.MalformedMsgs++
		return
	}
	for _, id := range to {
		r.outbox = append(r.outbox, Envelope{To: id, Payload: p})
	}
}

// SubmitUpdate starts an update command (Algorithm 2, lines 1-6): the
// update function is applied at the local acceptor and the resulting state
// is broadcast in MERGE messages; done fires once a quorum (counting this
// replica) has merged. Returns the request ID, or an error if the update
// function itself failed (in which case done is not called).
func (r *Replica) SubmitUpdate(fu crdt.Update, done UpdateDone) (uint64, error) {
	if !r.member {
		return 0, ErrNotMember
	}
	// A lease-holder update carries the leased round on its MERGEs: the
	// holder's own leased reads always propose a superset of its updates
	// (same serial process), so preserving the round at acceptors that
	// still hold it keeps the fast path alive across the holder's writes.
	// Updates from any other proposer still clobber, which is what forces
	// a leased read overlapping a foreign committed update to fall back.
	var keep Round
	if r.opts.Lease && r.lease != nil {
		keep = r.lease.round
	}
	s, err := r.acc.applyUpdate(fu, keep)
	if err != nil {
		return 0, fmt.Errorf("core: update function: %w", err)
	}
	r.version++ // payload replaced, round clobbered, nextReq advances
	r.nextReq++
	req := &updateReq{
		id:      r.nextReq,
		state:   s,
		round:   keep,
		lease:   keep.ID.Proposer != "",
		acked:   make(map[transport.NodeID]bool, len(r.peers)),
		done:    done,
		pending: r.quorum - 1, // the local acceptor already merged
	}
	if r.opts.Transfer != TransferFull {
		if d, derr := r.xfer.digests.Of(s); derr == nil {
			req.digest, req.hasDig = d, true
		}
	}
	if req.pending <= 0 {
		r.completeUpdate(req)
		return req.id, nil
	}
	r.updates[req.id] = req
	if !req.hasDig {
		// Full transfer: every peer gets the same frame, encoded once.
		r.broadcast(&message{Type: msgMerge, Req: req.id, State: req.state, Round: req.round, Lease: req.lease})
		return req.id, nil
	}
	for _, p := range r.peers {
		r.sendMerge(req, p)
	}
	return req.id, nil
}

// sendMerge ships the update's payload to one peer in the cheapest form
// the transfer mode and the per-peer view allow: a digest alone when the
// peer already acknowledged exactly this state, a delta against the last
// state it acknowledged (delta mode, delta-capable payloads), or the full
// payload. Full is always safe; the other forms are verified by the
// receiver against its own digest cache and fall back via MERGE-NACK.
func (r *Replica) sendMerge(req *updateReq, to transport.NodeID) {
	if req.hasDig {
		if view, ok := r.xfer.views[to]; ok {
			if view.digest == req.digest {
				r.counters.DigestMerges++
				r.send(to, &message{Type: msgMerge, Req: req.id, Kind: wire.StateDigest, Digest: req.digest, Round: req.round, Lease: req.lease})
				return
			}
			if r.opts.Transfer == TransferDelta && view.state != nil {
				if ds, ok := req.state.(crdt.DeltaState); ok {
					if delta, err := ds.Delta(view.state); err == nil {
						r.counters.DeltaMerges++
						r.send(to, &message{
							Type: msgMerge, Req: req.id, Kind: wire.StateDelta,
							State: delta, Digest: req.digest, Baseline: view.digest,
							Round: req.round, Lease: req.lease,
						})
						return
					}
				}
			}
		}
	}
	r.send(to, &message{Type: msgMerge, Req: req.id, State: req.state, Round: req.round, Lease: req.lease})
}

// SubmitQuery starts a query command (Algorithm 2, lines 7-24). done fires
// with the learned state once a quorum agrees. The caller applies its query
// function to the learned state (equivalently to line 15/24 sending
// fq(s) to the client).
func (r *Replica) SubmitQuery(done QueryDone) uint64 {
	r.nextReq++
	if !r.member {
		// Fail through the callback (the signature has no error return):
		// a non-member holds no quorum and must not serve reads.
		id := r.nextReq
		if done != nil {
			done(nil, QueryStats{}, ErrNotMember)
		}
		return id
	}
	req := &queryReq{
		id:   r.nextReq,
		done: done,
	}
	r.queries[req.id] = req
	if r.opts.Lease && r.lease != nil {
		r.startLeaseAttempt(req)
	} else {
		r.startAttempt(req, Round{Number: NumberIncremental})
	}
	return req.id
}

// startAttempt begins a (re)prepare attempt for a query with the given
// round template (incremental or fixed). Its PREPARE carries the LUB the
// query has gathered so far: per §3.6 nothing on the first attempt (s0 is
// never sent), the retry seed after that. Retries are counted here and
// nowhere else — every path that restarts a query (NACK, inconsistent
// rounds, vote denial, lease fallback) funnels through this function, so
// Retries == Σ(Attempts−1) holds exactly.
func (r *Replica) startAttempt(req *queryReq, round Round) {
	req.attempt++
	if req.attempt > 1 {
		r.counters.Retries++
	}
	r.beginPrepare(req, round)
}

// beginPrepare resets the attempt's phase state and broadcasts its
// PREPARE. It is separate from startAttempt so a fixed prepare denied by
// the local acceptor can morph into an incremental prepare without
// burning another attempt — nothing of the denied prepare was broadcast,
// so reusing the attempt number is safe and no retry is recorded.
func (r *Replica) beginPrepare(req *queryReq, round Round) {
	req.phase = phasePrepare
	req.leased = false
	req.leasable = false
	req.acks = make(map[transport.NodeID]ackInfo, len(r.peers)+1)
	req.votes = nil
	req.denials = nil
	req.proposed = nil
	req.prepared, req.preparedDig, req.hasPrepared = nil, crdt.Digest{}, false
	seed := req.gathered
	req.seed = seed

	// nextSeq advances and the local acceptor (below) merges the seed and
	// adopts the round: one durable transition either way.
	r.version++
	r.nextSeq++
	round.ID = RoundID{Proposer: r.id, Seq: r.nextSeq}
	req.round = round
	if round.Incremental() {
		r.counters.IncrementalPrepare++
	} else {
		r.counters.FixedPrepare++
	}

	// The local acceptor processes the PREPARE synchronously — it is the
	// same serial process (§3.2). Remote acceptors get it broadcast.
	reply, accRound, accState, err := r.acc.handlePrepare(round, seed)
	if err == nil && reply == msgAck {
		req.acks[r.id] = ackInfo{round: accRound, state: accState, lease: true}
	} else if err == nil {
		// A fixed prepare below the local round: morph into an incremental
		// prepare (always self-accepted, so this recurses at most once).
		req.gathered = r.mergeGathered(req.gathered, accState)
		r.beginPrepare(req, Round{Number: NumberIncremental})
		return
	}
	req.rtts++
	m := &message{Type: msgPrepare, Req: req.id, Attempt: req.attempt, Round: round, State: seed}
	if r.opts.Transfer != TransferFull {
		// Announce the digest of the local post-prepare payload: a remote
		// acceptor whose payload matches answers with the digest alone,
		// and onAck resolves it back to req.prepared. The digest is
		// computed after the local prepare so it covers the seed — the
		// exact state a converged remote acceptor ends up with.
		if d, derr := r.xfer.digests.Of(r.acc.state); derr == nil {
			req.prepared, req.preparedDig, req.hasPrepared = r.acc.state, d, true
			m.Digest = d
			if seed == nil {
				m.Kind = wire.StateDigest
			} else {
				m.Kind = wire.StateFullDigest
			}
		}
	}
	r.broadcast(m)

	// A single-replica cluster decides immediately.
	r.maybeDecidePrepare(req)
}

// startLeaseAttempt runs the prepare-skip fast path (docs/PROTOCOL.md §5):
// holding a round lease, the proposer goes straight to the vote phase at
// the leased round. The proposal merges the leased (last learned) state
// with the local payload, so it covers everything the lease-installing
// quorum had established plus every update this replica submitted since —
// the two sources a linearizable read from this proposer must reflect. An
// acceptor whose round moved on NACKs, and once a vote quorum becomes
// impossible the query falls back to the full two-phase protocol.
func (r *Replica) startLeaseAttempt(req *queryReq) {
	lease := r.lease
	req.attempt++
	req.phase = phaseVote
	req.leased = true
	req.leasable = false
	req.round = lease.round
	req.acks = nil
	req.votes = make(map[transport.NodeID]bool, len(r.peers)+1)
	req.denials = make(map[transport.NodeID]bool, len(r.peers))
	prop := r.mergeGathered(lease.state, r.acc.state)
	req.proposed = prop
	// gathered restarts empty: the proposal is local information (the
	// local acceptor merges it in the synchronous vote below), so a
	// fallback only needs to seed what remote denials actually taught us.
	req.gathered = nil

	// The local acceptor votes synchronously; a denial means the lease is
	// already stale here (a foreign update or competing prepare moved the
	// local round), so fall back before broadcasting anything.
	reply, _, _, err := r.acc.handleVote(lease.round, prop)
	r.version++
	if err != nil || reply != msgVoted {
		// Nothing was gathered from the wire yet, so the fallback starts
		// like a fresh first attempt: unseeded (§3.6 — the local payload
		// is never shipped in a first prepare).
		r.leaseFallback(req)
		return
	}
	req.votes[r.id] = true
	req.rtts++
	if r.opts.Transfer != TransferFull {
		if d, derr := r.xfer.digests.Of(prop); derr == nil {
			req.propDig, req.hasPropDig = d, true
		}
	}
	for _, p := range r.peers {
		m := &message{Type: msgVote, Req: req.id, Attempt: req.attempt, Round: lease.round, State: prop, Lease: true}
		if req.hasPropDig {
			// Digest-suppressed leased VOTE: ship no payload to a peer that
			// provably already holds it — either the cluster is quiescent
			// (the proposal still equals the leased state every quorum
			// member confirmed) or this peer's last acknowledged state is
			// exactly the proposal (it merged the holder's updates). The
			// acceptor verifies the digest against its own payload and
			// NACKs with the full state on any mismatch.
			quiescent := lease.hasDig && req.propDig == lease.digest
			view, seen := r.xfer.views[p]
			if quiescent || (seen && view.digest == req.propDig) {
				m.State, m.Kind, m.Digest = nil, wire.StateDigest, req.propDig
			}
		}
		r.send(p, m)
	}
	r.maybeDecideVote(req)
}

// leaseFallback abandons the fast path for the unmodified two-phase
// protocol: the lease is dropped (the next quorum read re-installs it)
// and the query restarts with an incremental prepare seeded with
// everything gathered so far, which counts as a retry.
func (r *Replica) leaseFallback(req *queryReq) {
	r.counters.LeaseFallbacks++
	r.lease = nil
	req.leased = false
	r.startAttempt(req, Round{Number: NumberIncremental})
}

func (r *Replica) mergeGathered(acc, s crdt.State) crdt.State {
	if s == nil {
		return acc
	}
	if acc == nil {
		return s
	}
	merged, err := acc.Merge(s)
	if err != nil {
		r.counters.MalformedMsgs++
		return acc
	}
	return merged
}

// Deliver processes one inbound protocol message. Malformed messages are
// dropped (counted), matching the unreliable-network model.
func (r *Replica) Deliver(from transport.NodeID, payload []byte) {
	m, err := decodeMessage(payload)
	if err != nil {
		r.counters.MalformedMsgs++
		return
	}
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
			r.pushConfig(from, m.Req)
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

// --- acceptor-side message handling ---

func (r *Replica) onMerge(from transport.NodeID, m *message) {
	// A node tracks per-peer merge digests only when digest transfer is
	// on locally; a full-mode node still answers digest and delta frames
	// correctly (safety never depends on the cache), it just recognizes
	// fewer baselines and forces more full-state fallbacks.
	track := r.opts.Transfer != TransferFull && r.isPeer(from)
	// A lease-holder MERGE names the round the sender's lease rests on;
	// acceptors still at exactly that round keep it (clobberRound).
	keep := Round{}
	if m.Lease {
		keep = m.Round
	}
	switch m.Kind {
	case wire.StateFull, wire.StateFullDigest:
		if m.State == nil {
			r.counters.MalformedMsgs++
			return
		}
		if err := r.acc.handleMerge(m.State, keep); err != nil {
			r.counters.MalformedMsgs++
			return
		}
		r.version++
		if track && len(m.StateRaw) > 0 {
			// Fingerprint the sender's state from the wire bytes — the
			// digest is defined over exactly this encoding.
			r.xfer.ring(from).add(crdt.DigestOfMarshaled(m.StateRaw))
		}
	case wire.StateDigest:
		// Payload suppressed: the sender believes this acceptor already
		// holds a state dominating the one with this digest. Verify, or
		// demand the full payload.
		if !r.dominates(from, m.Digest, track) {
			r.send(from, &message{Type: msgMergeNack, Req: m.Req})
			return
		}
	case wire.StateDelta:
		if m.State == nil {
			r.counters.MalformedMsgs++
			return
		}
		if r.dominates(from, m.Digest, track) {
			// The resulting state is already covered here (duplicate or
			// reordered delta): acknowledge without merging.
			break
		}
		if !r.dominates(from, m.Baseline, track) {
			// Unknown baseline: merging the delta alone could lose the
			// part of the sender's state the baseline carried.
			r.send(from, &message{Type: msgMergeNack, Req: m.Req})
			return
		}
		if err := r.acc.handleMerge(m.State, keep); err != nil {
			r.counters.MalformedMsgs++
			return
		}
		r.version++
		if track {
			// baseline ⊔ delta = the sender's full state: merged here, so
			// its digest is now a recognized baseline for future deltas.
			r.xfer.ring(from).add(m.Digest)
		}
	default:
		r.counters.MalformedMsgs++
		return
	}
	r.send(from, &message{Type: msgMerged, Req: m.Req})
}

// dominates reports whether the local payload provably dominates the state
// with digest d as last shipped by peer from: either that exact state was
// merged here earlier (the per-peer digest ring — payloads only grow, so
// once merged, dominated forever) or the local payload IS that state.
func (r *Replica) dominates(from transport.NodeID, d crdt.Digest, track bool) bool {
	if d.IsZero() {
		return false
	}
	if ring, ok := r.xfer.seen[from]; ok && ring.contains(d) {
		return true
	}
	if own, err := r.xfer.digests.Of(r.acc.state); err == nil && own == d {
		if track {
			r.xfer.ring(from).add(d)
		}
		return true
	}
	return false
}

// onMergeNack is the full-state fallback of digest and delta MERGEs: the
// receiver did not recognize what we assumed it had. Drop the stale view
// and resend the complete payload.
func (r *Replica) onMergeNack(from transport.NodeID, m *message) {
	req, ok := r.updates[m.Req]
	if !ok && r.retired != nil && r.retired.id == m.Req {
		// The update answered its client at quorum with this peer's
		// MERGED outstanding; its payload must still reach the peer, or
		// the cluster would not converge.
		req, ok = r.retired, true
	}
	if !ok || req.acked[from] {
		// Stale or duplicated NACK: in particular, don't drop the view —
		// a duplicate arriving after the fallback's MERGED would wipe the
		// freshly re-established baseline.
		r.counters.StaleMsgs++
		return
	}
	delete(r.xfer.views, from)
	r.counters.MergeFallbacks++
	r.send(from, &message{Type: msgMerge, Req: req.id, State: req.state})
}

func (r *Replica) onPrepare(from transport.NodeID, m *message) {
	reply, round, state, err := r.acc.handlePrepare(m.Round, m.State)
	if err != nil {
		r.counters.MalformedMsgs++
		return
	}
	// The prepare may have merged a seed and adopted a round; bumping on
	// NACKs too overcounts at worst (StateVersion is allowed to).
	r.version++
	if reply == msgAck {
		r.counters.PreparesAccepted++
	} else {
		r.counters.PreparesRejected++
	}
	// Lease is the capability hint (docs/PROTOCOL.md §5): this acceptor
	// understands round leases, so a proposer quorum of hinted replies may
	// install one. Old binaries never set the bit.
	out := &message{Type: reply, Req: m.Req, Attempt: m.Attempt, Round: round, State: state, Lease: true}
	if m.Kind.HasDigest() && state != nil {
		// The PREPARE announced the proposer's payload digest. If the
		// local post-prepare payload matches, the proposer already holds
		// this exact state: answer with the digest alone (the converged
		// fast path that makes a quorum read cost O(digest) bytes).
		if own, derr := r.xfer.digests.Of(state); derr == nil && own == m.Digest {
			out.State, out.Kind, out.Digest = nil, wire.StateDigest, own
			r.counters.DigestReplies++
		}
	}
	r.send(from, out)
}

func (r *Replica) onVote(from transport.NodeID, m *message) {
	digestVerified := false
	if m.Kind == wire.StateDigest {
		// Digest-suppressed leased VOTE: the holder proposes the exact
		// state it believes this acceptor already has. Verify by digest —
		// on a match the merge-before-reply of handleVote is a no-op and
		// voting is a pure round check; on a mismatch deny with the full
		// local state so the proposer gathers it and falls back.
		own, derr := r.xfer.digests.Of(r.acc.state)
		if derr != nil || own != m.Digest {
			r.counters.VotesRejected++
			r.send(from, &message{Type: msgNack, Req: m.Req, Attempt: m.Attempt, Round: r.acc.round, State: r.acc.state, Lease: true})
			return
		}
		digestVerified = true
		m.State = nil
	} else if m.Lease {
		// A leased VOTE skipped the prepare phase, so the round-equality
		// check alone does not prove the proposal covers this acceptor —
		// an incremental PREPARE delivered late can re-mint the leased
		// round (Number = local+1 collides) at an acceptor whose payload
		// moved on. Re-verify the consistent-quorum condition here: vote
		// only if the local payload is covered by the proposal. Any update
		// committed before the read began sits in a quorum of payloads and
		// so forces a denial in every intersecting vote quorum.
		if m.State == nil {
			r.counters.MalformedMsgs++
			return
		}
		le, cerr := r.acc.state.Compare(m.State)
		if cerr != nil {
			r.counters.MalformedMsgs++
			return
		}
		if !le {
			// Merge-before-deny (Lemma 3.4(ii)): the proposer gathers the
			// denial's state, so its fallback retry converges.
			if merged, merr := r.acc.state.Merge(m.State); merr == nil {
				r.acc.state = merged
				r.version++
			}
			r.counters.VotesRejected++
			r.send(from, &message{Type: msgNack, Req: m.Req, Attempt: m.Attempt, Round: r.acc.round, State: r.acc.state, Lease: true})
			return
		}
	}
	reply, round, state, err := r.acc.handleVote(m.Round, m.State)
	if err != nil {
		r.counters.MalformedMsgs++
		return
	}
	r.version++ // the vote's proposed state was merged into the payload
	if reply == msgVoted {
		r.counters.VotesAccepted++
	} else {
		r.counters.VotesRejected++
	}
	out := &message{Type: reply, Req: m.Req, Attempt: m.Attempt, Round: round, State: state, Lease: true}
	if reply == msgNack && digestVerified {
		// Round-mismatch denial of a digest-verified leased VOTE: the
		// payload here IS the proposer's proposal, so the digest alone
		// lets the proposer resolve the denial's state without shipping
		// a full payload back.
		out.State, out.Kind, out.Digest = nil, wire.StateDigest, m.Digest
	}
	r.send(from, out)
}

// --- proposer-side message handling ---

func (r *Replica) onMerged(from transport.NodeID, m *message) {
	req, ok := r.updates[m.Req]
	if !ok {
		if r.retired != nil && r.retired.id == m.Req && !r.retired.acked[from] {
			// A straggler MERGED for an already-answered update: no client
			// to notify, but the peer's view still advances.
			r.retired.acked[from] = true
			r.noteAcked(r.retired, from)
			if len(r.retired.acked) >= len(r.peers) {
				r.retired = nil
			}
			return
		}
		r.counters.StaleMsgs++
		return
	}
	if req.acked[from] {
		return // duplicate
	}
	req.acked[from] = true
	r.noteAcked(req, from)
	req.pending--
	if req.pending <= 0 {
		delete(r.updates, req.id)
		if req.hasDig && len(req.acked) < len(r.peers) {
			r.retired = req
		}
		r.completeUpdate(req)
	}
}

// noteAcked records that the peer durably merged req.state: any
// acknowledged state is a sound delta baseline forever (the peer's
// payload only grows), so it replaces the per-peer view.
func (r *Replica) noteAcked(req *updateReq, from transport.NodeID) {
	if !req.hasDig || !r.isPeer(from) {
		return
	}
	view := &peerView{digest: req.digest}
	if r.opts.Transfer == TransferDelta {
		view.state = req.state
	}
	r.xfer.views[from] = view
}

func (r *Replica) completeUpdate(req *updateReq) {
	r.counters.Updates++
	if req.done != nil {
		req.done(UpdateStats{RoundTrips: 1}, nil)
	}
}

func (r *Replica) onAck(from transport.NodeID, m *message) {
	req, ok := r.queries[m.Req]
	if !ok || m.Attempt != req.attempt || req.phase != phasePrepare {
		r.counters.StaleMsgs++
		return
	}
	if _, dup := req.acks[from]; dup {
		return
	}
	state := m.State
	if m.Kind == wire.StateDigest {
		// Digest-only ACK: the acceptor's state equals the one whose
		// digest our PREPARE announced — resolve it locally.
		if !req.hasPrepared || m.Digest != req.preparedDig {
			r.counters.MalformedMsgs++
			return
		}
		state = req.prepared
	}
	if state == nil {
		r.counters.MalformedMsgs++
		return
	}
	req.acks[from] = ackInfo{round: m.Round, state: state, lease: m.Lease}
	req.gathered = r.mergeGathered(req.gathered, state)
	r.maybeDecidePrepare(req)
}

// maybeDecidePrepare implements lines 11-21: once ACKs from a quorum have
// arrived, either learn by consistent quorum, move to the vote phase, or
// retry with a fixed prepare at a higher round number.
func (r *Replica) maybeDecidePrepare(req *queryReq) {
	if req.phase != phasePrepare || len(req.acks) < r.quorum {
		return
	}
	// One sweep over the quorum: state identity, round agreement, and the
	// lease capability hints. Round agreement is the lease precondition
	// and is NOT automatic even when every ACK answered our own prepare —
	// under incremental prepares each acceptor substitutes its own
	// number+1, so concurrent traffic leaves them disagreeing.
	states := make([]crdt.State, 0, len(req.acks))
	identical := true
	var common Round
	sameRound := true
	allLeased := true
	first := true
	for _, a := range req.acks {
		if len(states) > 0 && a.state != states[0] {
			identical = false
		}
		states = append(states, a.state)
		if first {
			common, first = a.round, false
		} else if a.round != common {
			sameRound = false
		}
		if !a.lease {
			allLeased = false
		}
	}
	if r.opts.Lease && sameRound && allLeased {
		// Whatever this attempt learns, the quorum has confirmed common as
		// the highest round established and every member is lease-capable:
		// the lease is installable once the query completes.
		req.leasable, req.leaseRound = true, common
	}
	if identical {
		// Every ACK resolved to the same state value — the norm under
		// digest transfer, where digest-only ACKs all resolve to the
		// prepared state. Trivially a consistent quorum: skip the O(n)
		// merge-and-compare sweep.
		r.finishQuery(req, states[0], LearnConsistentQuorum)
		return
	}
	lub, err := crdt.MergeAll(states...)
	if err != nil {
		r.counters.MalformedMsgs++
		r.retryQuery(req)
		return
	}

	// (a) Learned by consistent quorum: all ACK states equivalent to ⊔S̆.
	consistent := true
	for _, s := range states {
		eq, eqErr := crdt.Equivalent(s, lub)
		if eqErr != nil || !eq {
			consistent = false
			break
		}
	}
	if consistent {
		r.finishQuery(req, lub, LearnConsistentQuorum)
		return
	}

	// (b) Consistent rounds: propose ⊔S̆ under the common round.
	if sameRound {
		req.phase = phaseVote
		req.proposed = lub
		req.votes = make(map[transport.NodeID]bool, len(r.peers)+1)
		req.denials = make(map[transport.NodeID]bool, len(r.peers))
		req.round = common
		req.rtts++

		// Local acceptor votes synchronously. A local denial means an
		// update already intervened here; per §3.2 retry straight away.
		reply, _, accState, voteErr := r.acc.handleVote(common, lub)
		r.version++
		if voteErr == nil && reply != msgVoted {
			req.gathered = r.mergeGathered(req.gathered, accState)
			r.retryQuery(req)
			return
		}
		if voteErr == nil {
			req.votes[r.id] = true
		}
		r.broadcast(&message{Type: msgVote, Req: req.id, Attempt: req.attempt, Round: common, State: lub})
		r.maybeDecideVote(req)
		return
	}

	// (c) Inconsistent rounds: retry with a fixed prepare at max(R̆)+1
	// (lines 19-21), seeded with the gathered LUB.
	max := common
	for _, a := range req.acks {
		if max.Less(a.round) {
			max = a.round
		}
	}
	r.startAttempt(req, Round{Number: max.Number + 1})
}

func (r *Replica) onVoted(from transport.NodeID, m *message) {
	req, ok := r.queries[m.Req]
	if !ok || m.Attempt != req.attempt || req.phase != phaseVote {
		r.counters.StaleMsgs++
		return
	}
	req.votes[from] = true
	if !m.Lease {
		req.leasable = false
	}
	if req.leased && req.hasPropDig && r.isPeer(from) {
		// VOTED to a leased VOTE confirms the peer merged the proposal
		// before replying, so the proposal is a sound per-peer baseline —
		// the next leased read or digest/delta MERGE can build on it.
		view := &peerView{digest: req.propDig}
		if r.opts.Transfer == TransferDelta {
			view.state = req.proposed
		}
		r.xfer.views[from] = view
	}
	r.maybeDecideVote(req)
}

func (r *Replica) maybeDecideVote(req *queryReq) {
	if req.phase == phaseVote && len(req.votes) >= r.quorum {
		// Learned by vote: the proposed state is established in a quorum.
		r.finishQuery(req, req.proposed, LearnVote)
	}
}

func (r *Replica) onNack(from transport.NodeID, m *message) {
	req, ok := r.queries[m.Req]
	if !ok || m.Attempt != req.attempt {
		r.counters.StaleMsgs++
		return
	}
	// §3.2 "Retrying Requests": a proposer that receives a NACK before a
	// quorum of ACK or VOTED messages must retry, with an incremental
	// prepare seeded with the LUB of every payload received so far (this
	// is what makes the retry loop converge, §3.5).
	state := m.State
	if m.Kind == wire.StateDigest && req.hasPrepared && m.Digest == req.preparedDig {
		state = req.prepared // digest-only NACK: the acceptor holds our prepared state
	} else if m.Kind == wire.StateDigest && req.hasPropDig && m.Digest == req.propDig {
		state = req.proposed // digest-only NACK to a leased VOTE: it holds our proposal
	}
	if state != req.proposed {
		// The proposal itself is never worth gathering: the local acceptor
		// merged it when it voted, so a retry's learn already covers it.
		req.gathered = r.mergeGathered(req.gathered, state)
	}
	switch req.phase {
	case phasePrepare:
		// A prepare NACK (fixed prepare below the acceptor's round) dooms
		// the phase: retry immediately.
		r.retryQuery(req)
	case phaseVote:
		// A denied vote may still be outvoted: retry only once a quorum of
		// VOTED can no longer arrive from acceptors that have not replied.
		// (A crashed acceptor never replies; the runtime's retransmit
		// timeout covers that case.)
		req.denials[from] = true
		replies := len(req.votes) + len(req.denials)
		outstanding := len(r.peers) + 1 - replies
		if len(req.votes)+outstanding < r.quorum {
			if req.leased {
				r.leaseFallback(req)
			} else {
				r.retryQuery(req)
			}
		}
	}
}

// retryQuery restarts a query with an incremental prepare seeded with the
// LUB of everything seen so far. §3.2: retrying with an incremental prepare
// guarantees eventual liveness; each failed iteration folds at least one
// more acceptor's updates into the seed (§3.5).
func (r *Replica) retryQuery(req *queryReq) {
	r.startAttempt(req, Round{Number: NumberIncremental})
}

func (r *Replica) finishQuery(req *queryReq, learned crdt.State, path LearnPath) {
	delete(r.queries, req.id)
	r.counters.Queries++
	if path == LearnConsistentQuorum {
		r.counters.ConsistentQuorum++
	} else {
		r.counters.ByVote++
	}

	if req.leased {
		r.counters.LeaseHits++
		// Refresh the lease with the just-learned state so the next leased
		// read's digest matches again — unless it was dropped or replaced
		// while this read was in flight (never resurrect a dropped lease).
		if r.lease != nil && r.lease.round == req.round {
			r.installLease(req.round, learned)
		}
	} else if req.leasable {
		// Install a fresh lease: the attempt proved leaseRound is the
		// highest round established in a quorum with every member
		// lease-capable. Never replace a newer lease with an older round —
		// a concurrent query may have installed one while this attempt's
		// stragglers arrived.
		if r.lease == nil || !req.leaseRound.Less(r.lease.round) {
			r.installLease(req.leaseRound, learned)
		}
	}

	// GLA-Stability (§3.4): remember the largest learned state; return the
	// max. The two are always comparable because the protocol guarantees
	// Consistency (Theorem 3.8).
	le, err := r.learned.Compare(learned)
	switch {
	case err == nil && le:
		r.learned = learned
		r.version++
	case err == nil:
		learned = r.learned
	}

	if req.done != nil {
		req.done(learned, QueryStats{RoundTrips: req.rtts, Attempts: int(req.attempt), Path: path, Leased: req.leased}, nil)
	}
}

// installLease records (or refreshes) the round lease. The digest of the
// leased state is memoized under digest/delta transfer so quiescent
// leased VOTEs can ship no payload.
func (r *Replica) installLease(round Round, state crdt.State) {
	l := &leaseState{round: round, state: state}
	if r.opts.Transfer != TransferFull {
		if d, err := r.xfer.digests.Of(state); err == nil {
			l.digest, l.hasDig = d, true
		}
	}
	r.lease = l
}

// Retransmit re-drives an in-flight request after a runtime timeout,
// covering message loss. Updates re-broadcast MERGE to acceptors that have
// not acknowledged (idempotent: merge is) — always as the full payload,
// since a lost digest or delta frame is indistinguishable from a receiver
// that could not use it. Queries re-send the current attempt's outstanding
// messages: progress already gathered (ACKs, VOTEDs) is kept, the attempt
// is not burned, and no retry is recorded — re-delivery is idempotent at
// the acceptor, and an acceptor that moved on answers NACK, which drives
// the normal retry machinery.
func (r *Replica) Retransmit(reqID uint64) {
	if req, ok := r.updates[reqID]; ok {
		for _, p := range r.peers {
			if !req.acked[p] {
				r.send(p, &message{Type: msgMerge, Req: req.id, State: req.state, Round: req.round, Lease: req.lease})
			}
		}
		return
	}
	if req, ok := r.queries[reqID]; ok {
		r.retransmitQuery(req)
		return
	}
	if r.reconfig != nil && r.reconfig.id == reqID {
		for _, p := range r.reconfig.targets {
			if !r.reconfig.acked[p] {
				r.sendReconfig(p, r.reconfig.id)
			}
		}
	}
}

// retransmitQuery re-sends the in-flight attempt's messages to the peers
// that have not answered it.
func (r *Replica) retransmitQuery(req *queryReq) {
	switch req.phase {
	case phasePrepare:
		m := &message{Type: msgPrepare, Req: req.id, Attempt: req.attempt, Round: req.round, State: req.seed}
		if req.hasPrepared {
			m.Digest = req.preparedDig
			if req.seed == nil {
				m.Kind = wire.StateDigest
			} else {
				m.Kind = wire.StateFullDigest
			}
		}
		for _, p := range r.peers {
			if _, ok := req.acks[p]; !ok {
				r.send(p, m)
			}
		}
	case phaseVote:
		if len(req.denials) > 0 {
			// Vote-grace period (Figure 4): a denied vote waits only for
			// acceptors that may still outvote the denial, but a silently
			// crashed or partitioned acceptor never replies at all — it
			// cannot be distinguished from a slow one except by this
			// timeout. Re-sending the same VOTE cannot help (the denial
			// stands until the round moves), so treat the vote as
			// undecidable and retry through the normal NACK machinery.
			if req.leased {
				r.leaseFallback(req)
			} else {
				r.retryQuery(req)
			}
			return
		}
		// Always the full proposal, never digest-suppressed: a lost leased
		// VOTE is indistinguishable from a receiver that could not verify
		// the digest.
		m := &message{Type: msgVote, Req: req.id, Attempt: req.attempt, Round: req.round, State: req.proposed, Lease: req.leased}
		for _, p := range r.peers {
			if !req.votes[p] && !req.denials[p] {
				r.send(p, m)
			}
		}
	}
}

// RetransmitAll re-drives every in-flight request in request-ID order.
// Deterministic runtimes (the interleaving checker) use it in place of
// per-request timers when the network goes quiescent under loss.
func (r *Replica) RetransmitAll() {
	ids := make([]uint64, 0, len(r.updates)+len(r.queries)+1)
	for id := range r.updates {
		ids = append(ids, id)
	}
	for id := range r.queries {
		ids = append(ids, id)
	}
	if r.reconfig != nil {
		ids = append(ids, r.reconfig.id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		r.Retransmit(id)
	}
}

// Abort abandons an in-flight request; its completion callback fires with
// ErrAborted. Aborting an unknown (e.g. already completed) request is a
// no-op.
func (r *Replica) Abort(reqID uint64) {
	if req, ok := r.updates[reqID]; ok {
		delete(r.updates, reqID)
		if req.hasDig && len(req.acked) < len(r.peers) {
			// The client gives up, but the payload must still reach every
			// peer: a digest or delta MERGE a peer rejects is answered
			// from the retired slot with the full state (onMergeNack) —
			// without this, an aborted delta-mode update could leave that
			// peer unconverged until unrelated later traffic.
			r.retired = req
		}
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
