package paxos

import (
	"fmt"
	"time"

	"crdtsmr/internal/rsm"
	"crdtsmr/internal/transport"
)

// ErrNoLeader is reported when a command cannot be routed to a leader.
const ErrNoLeader = rsm.Transient("paxos: no known leader")

// ErrLostLeadership is reported when a pending command's leader was
// superseded before the command was chosen.
const ErrLostLeadership = rsm.Transient("paxos: leadership lost before commit")

type role uint8

const (
	follower role = iota + 1
	preparing
	leading
)

type slot struct {
	ballot    Ballot
	cmd       []byte
	committed bool
}

// Replica is the pure Multi-Paxos state machine. The embedded command
// layer holds its ID, peers and quorum, its outbox and command
// forwarding.
type Replica struct {
	rsm.Commands

	sm rsm.StateMachine

	promised Ballot
	role     role
	leader   transport.NodeID

	// Slots, compacted: slots[i] is slot base+i (slot numbering begins at 1).
	slots []slot
	base  uint64 // lowest retained slot number

	commitUpTo  uint64 // all slots ≤ commitUpTo are chosen
	lastApplied uint64

	// Phase-1 candidate state.
	prepareBallot Ballot
	promises      map[transport.NodeID]*message

	// Leader state.
	nextSlot   uint64
	accepts    map[uint64]map[transport.NodeID]bool // slot -> acceptor acks
	proposals  map[uint64]*proposal                 // slot -> waiting client
	applied    map[transport.NodeID]uint64          // follower applied watermarks
	leaseAcked map[transport.NodeID]time.Time       // follower ack times (lease)

	// Follower lease promise: no promise to other ballots until this time.
	leaseHoldUntil time.Time

	// readBarrier is the highest slot adopted when this replica last won an
	// election. Lease reads are disabled until it is applied: a fresh leader
	// holds acks (so its lease looks valid) before it has re-committed the
	// previous leader's suffix, and serving reads in that window would miss
	// entries that were already committed and acknowledged to clients.
	readBarrier uint64

	// LeaseDuration bounds both the leader's local-read window and the
	// followers' promise-withholding window. Must be identical clusterwide.
	LeaseDuration time.Duration
	// CompactEvery truncates the applied log prefix after this many slots.
	CompactEvery int
	// MaxRetained caps retention for crashed stragglers: the leader may
	// truncate past a follower that is more than this many slots behind,
	// falling back to snapshot transfer when it returns (0 = never).
	MaxRetained int
}

type proposal struct {
	ballot Ballot
	done   rsm.Done
}

var _ rsm.Replica = (*Replica)(nil)

// NewReplica creates a Multi-Paxos participant. members must include id.
func NewReplica(id transport.NodeID, members []transport.NodeID, sm rsm.StateMachine) (*Replica, error) {
	cmds, err := rsm.NewCommands(id, members, ErrNoLeader, forwarding{})
	if err != nil {
		return nil, fmt.Errorf("paxos: %w", err)
	}
	return &Replica{
		Commands:      cmds,
		sm:            sm,
		role:          follower,
		base:          1,
		nextSlot:      1,
		LeaseDuration: 500 * time.Millisecond,
		CompactEvery:  4096,
	}, nil
}

// IsLeader reports whether this replica currently leads.
func (r *Replica) IsLeader() bool { return r.role == leading }

// Leader returns the best-known leader, or "".
func (r *Replica) Leader() transport.NodeID {
	if r.role == leading {
		return r.ID()
	}
	return r.leader
}

// LogLen returns the number of retained slots (for truncation tests).
func (r *Replica) LogLen() int { return len(r.slots) }

func (r *Replica) slotAt(n uint64) *slot {
	if n < r.base {
		return nil
	}
	for uint64(len(r.slots)) <= n-r.base {
		r.slots = append(r.slots, slot{})
	}
	return &r.slots[n-r.base]
}

// --- leadership ---

// ElectionTimeout begins phase 1 with a ballot exceeding every ballot seen.
// The runtime calls this on leader-liveness timeout; now is the lease
// clock (a follower that recently renewed another leader's lease refuses).
func (r *Replica) ElectionTimeout(now time.Time) {
	if r.role == leading {
		// A leader holding a valid lease is its own liveness proof: the
		// runtime's election timer only resets on messages that indicate a
		// live leader, which the leader itself never receives, so without
		// this guard a healthy leader deposes itself every election timeout
		// (dropping its lease and in-flight proposals with it).
		if r.leaseValid(now) {
			return
		}
		// Deposing ourselves: in-flight proposals may still commit under
		// the old ballot, but their callbacks cannot survive the ballot
		// change — fail them as fate-unknown, exactly like stepDown does.
		r.failProposals()
	}
	r.prepareBallot = Ballot{N: r.promised.N + 1, ID: r.ID()}
	r.promised = r.prepareBallot
	r.role = preparing
	r.leader = ""
	r.promises = map[transport.NodeID]*message{r.ID(): r.selfPromise()}
	r.Broadcast(&message{Type: mPrepare, Ballot: r.prepareBallot, From: r.base})
	r.maybeLead()
}

func (r *Replica) selfPromise() *message {
	return &message{Ballot: r.prepareBallot, Accepted: r.acceptedFrom(r.base), Applied: r.lastApplied}
}

func (r *Replica) acceptedFrom(from uint64) []slotCmd {
	var out []slotCmd
	for i, s := range r.slots {
		n := r.base + uint64(i)
		if n >= from && s.cmd != nil {
			out = append(out, slotCmd{Slot: n, Ballot: s.ballot, Cmd: s.cmd})
		}
	}
	return out
}

func (r *Replica) maybeLead() {
	if r.role != preparing || len(r.promises) < r.Quorum() {
		return
	}
	r.role = leading
	r.leader = r.ID()
	r.accepts = make(map[uint64]map[transport.NodeID]bool)
	r.proposals = make(map[uint64]*proposal)
	r.applied = map[transport.NodeID]uint64{r.ID(): r.lastApplied}
	r.leaseAcked = make(map[transport.NodeID]time.Time)

	// Adopt the highest-ballot accepted command per slot and re-propose the
	// whole suffix; fill gaps with no-ops.
	adopted := make(map[uint64]slotCmd)
	maxSlot := r.commitUpTo
	for _, p := range r.promises {
		for _, a := range p.Accepted {
			if cur, ok := adopted[a.Slot]; !ok || cur.Ballot.Less(a.Ballot) {
				adopted[a.Slot] = a
			}
			if a.Slot > maxSlot {
				maxSlot = a.Slot
			}
		}
	}
	r.nextSlot = maxSlot + 1
	r.readBarrier = maxSlot
	for n := r.commitUpTo + 1; n <= maxSlot; n++ {
		cmd := rsm.EncodeNoop()
		if a, ok := adopted[n]; ok {
			cmd = a.Cmd
		}
		r.proposeSlot(n, cmd, nil)
	}
}

// --- client commands ---

// Propose submits a command. Leaders assign it a slot; followers forward to
// the known leader; with no leader known the callback fires with
// ErrNoLeader.
func (r *Replica) Propose(cmd []byte, done rsm.Done) {
	r.submit(cmd, false, done)
}

// ProposeRead submits a read command. A follower forwards it flagged as a
// read so the leader can answer from its read lease without a log round —
// the paper's baseline behaviour (clients spread over replicas, reads
// answered by the leaseholder). Leaders fall back to the log when their
// lease is not valid; the node runtime short-circuits the leader-local
// case before calling this.
func (r *Replica) ProposeRead(cmd []byte, done rsm.Done) {
	r.submit(cmd, true, done)
}

func (r *Replica) submit(cmd []byte, read bool, done rsm.Done) {
	switch {
	case r.role == leading:
		n := r.nextSlot
		r.nextSlot++
		r.proposeSlot(n, cmd, done)
	case r.leader != "":
		r.Forward(r.leader, cmd, read, done)
	default:
		done(nil, ErrNoLeader)
	}
}

// ReadLocal serves a linearizable read at a leader holding a valid lease:
// no message exchange, applied directly to the local state machine. It
// reports false if this replica is not a leader with a valid lease, in
// which case the caller must fall back to Propose with a read command.
func (r *Replica) ReadLocal(now time.Time, cmd []byte) ([]byte, bool) {
	if r.role != leading || r.lastApplied < r.readBarrier || !r.leaseValid(now) {
		return nil, false
	}
	return r.sm.Apply(cmd), true
}

// leaseValid reports whether a quorum (counting the leader itself) renewed
// the lease within LeaseDuration.
func (r *Replica) leaseValid(now time.Time) bool {
	count := 1 // self
	for _, t := range r.leaseAcked {
		if now.Sub(t) < r.LeaseDuration {
			count++
		}
	}
	return count >= r.Quorum()
}

func (r *Replica) proposeSlot(n uint64, cmd []byte, done rsm.Done) {
	s := r.slotAt(n)
	s.ballot = r.prepareBallot
	s.cmd = cmd
	if done != nil {
		r.proposals[n] = &proposal{ballot: r.prepareBallot, done: done}
	}
	r.accepts[n] = map[transport.NodeID]bool{r.ID(): true}
	r.Broadcast(&message{Type: mAccept, Ballot: r.prepareBallot, Slot: n, Cmd: cmd, UpTo: r.commitUpTo})
	r.maybeChoose(n)
}

// HeartbeatTick makes a leader broadcast liveness, its commit watermark,
// and the cluster-wide applied watermark used for log truncation. now is
// the lease clock: it rides the heartbeat and is echoed in the ack, so the
// leader's lease window is anchored at send time. Anchoring at ack-receive
// time would let the leader serve reads for one network round trip after a
// follower's promise-withholding window lapsed — a stale-read hole.
func (r *Replica) HeartbeatTick(now time.Time) {
	if r.role != leading {
		return
	}
	trunc := r.minApplied()
	if r.MaxRetained > 0 && r.commitUpTo > uint64(r.MaxRetained) {
		if floor := r.commitUpTo - uint64(r.MaxRetained); floor > trunc {
			trunc = floor
		}
	}
	r.Broadcast(&message{
		Type:     mHeartbeat,
		Ballot:   r.prepareBallot,
		UpTo:     r.commitUpTo,
		Truncate: trunc,
		Sent:     now.UnixNano(),
	})
	// Retransmit un-chosen proposals to peers that have not accepted them:
	// an accept (or its ack) can be lost, and nothing else re-offers the
	// slot, so a single drop would wedge the commit pipeline behind it
	// forever. Re-accepting is idempotent (same ballot, same slot). Walk
	// slots in order, not the accepts map — send order must be
	// deterministic for same-seed runs to decide identically.
	for n := r.commitUpTo + 1; n < r.nextSlot; n++ {
		acks := r.accepts[n]
		if acks == nil {
			continue
		}
		s := r.slotAt(n)
		if s == nil || s.committed || s.cmd == nil {
			continue
		}
		for _, p := range r.Peers() {
			if !acks[p] {
				r.Send(p, &message{Type: mAccept, Ballot: r.prepareBallot, Slot: n, Cmd: s.cmd, UpTo: r.commitUpTo})
			}
		}
	}
	r.maybeCompact(trunc)
}

func (r *Replica) minApplied() uint64 {
	min := r.lastApplied
	for _, p := range r.Peers() {
		if r.applied[p] < min {
			min = r.applied[p]
		}
	}
	return min
}

// --- message handling ---

// Deliver processes one inbound message. It returns true when the message
// indicates a live leader (the runtime resets its election timer). now is
// the lease clock.
func (r *Replica) Deliver(from transport.NodeID, payload []byte, now time.Time) bool {
	m, err := decodeMessage(payload)
	if err != nil {
		return false
	}
	switch m.Type {
	case mPrepare:
		return r.onPrepare(from, m, now)
	case mPromise:
		r.onPromise(from, m)
	case mReject:
		r.onReject(m)
	case mAccept:
		return r.onAccept(from, m, now)
	case mAccepted:
		r.onAccepted(from, m)
	case mCommit:
		r.commitTo(m.UpTo, from)
	case mHeartbeat:
		return r.onHeartbeat(from, m, now)
	case mHeartbeatAck:
		r.onHeartbeatAck(from, m, now)
	case mCatchup:
		// Requests (From set) go to the leader; replies (Accepted suffix)
		// come back from it.
		if r.role == leading {
			r.onCatchup(from, m)
		} else {
			r.handleCatchupReply(from, m)
		}
	case mSnapshot:
		r.onSnapshot(from, m)
	case mForward:
		r.onForward(from, m, now)
	case mForwardResp:
		r.Resolve(m.ReqID, m.Data, m.Err)
	}
	return false
}

// Crash fails every forwarded and proposed command still in flight and
// gives up leadership.
func (r *Replica) Crash() {
	r.FailForwards()
	r.stepDown(r.promised, "")
}

func (r *Replica) stepDown(b Ballot, leaderID transport.NodeID) {
	wasLeader := r.role == leading
	r.promised = b
	r.role = follower
	r.leader = leaderID
	r.promises = nil
	if wasLeader {
		r.failProposals()
	}
}

// failProposals fails every in-flight proposal with ErrLostLeadership, in
// slot order.
func (r *Replica) failProposals() {
	rsm.FailAll(r.proposals, func(p *proposal) { p.done(nil, ErrLostLeadership) })
}

func (r *Replica) onPrepare(from transport.NodeID, m *message, now time.Time) bool {
	// Lease promise: having recently renewed the current leader's lease, a
	// follower must not promise to a different candidate until the lease
	// window has passed — this is what makes leader local reads safe. The
	// leader likewise defends its own valid lease.
	if now.Before(r.leaseHoldUntil) && from != r.leader {
		r.Send(from, &message{Type: mReject, Ballot: r.promised})
		return false
	}
	if r.role == leading && r.leaseValid(now) {
		r.Send(from, &message{Type: mReject, Ballot: r.promised})
		return false
	}
	if !r.promised.Less(m.Ballot) {
		r.Send(from, &message{Type: mReject, Ballot: r.promised})
		return false
	}
	r.stepDown(m.Ballot, from)
	r.Send(from, &message{
		Type:     mPromise,
		Ballot:   m.Ballot,
		Accepted: r.acceptedFrom(m.From),
		Applied:  r.lastApplied,
	})
	return true
}

func (r *Replica) onPromise(from transport.NodeID, m *message) {
	if r.role != preparing || m.Ballot != r.prepareBallot {
		return
	}
	r.promises[from] = m
	r.maybeLead()
}

func (r *Replica) onReject(m *message) {
	if r.promised.Less(m.Ballot) {
		r.stepDown(m.Ballot, "")
	} else if r.role == preparing {
		// A rejection at our own ballot: abandon this attempt; the runtime
		// will retry with a higher ballot on the next election timeout.
		r.role = follower
	}
}

func (r *Replica) onAccept(from transport.NodeID, m *message, now time.Time) bool {
	if m.Ballot.Less(r.promised) {
		r.Send(from, &message{Type: mReject, Ballot: r.promised})
		return false
	}
	if r.role != follower || r.leader != from || r.promised.Less(m.Ballot) {
		r.stepDown(m.Ballot, from)
	}
	r.leaseHoldUntil = now.Add(r.LeaseDuration)
	s := r.slotAt(m.Slot)
	if s != nil && !s.committed {
		s.ballot = m.Ballot
		s.cmd = m.Cmd
	}
	r.Send(from, &message{Type: mAccepted, Ballot: m.Ballot, Slot: m.Slot})
	r.commitTo(m.UpTo, from)
	return true
}

func (r *Replica) onAccepted(from transport.NodeID, m *message) {
	if r.role != leading || m.Ballot != r.prepareBallot {
		return
	}
	acks := r.accepts[m.Slot]
	if acks == nil {
		return // already chosen and cleaned up
	}
	acks[from] = true
	r.maybeChoose(m.Slot)
}

func (r *Replica) maybeChoose(n uint64) {
	acks := r.accepts[n]
	if acks == nil || len(acks) < r.Quorum() {
		return
	}
	delete(r.accepts, n)
	s := r.slotAt(n)
	if s != nil {
		s.committed = true
	}
	// Advance the contiguous committed watermark.
	for {
		next := r.slotAt(r.commitUpTo + 1)
		if next == nil || !next.committed {
			break
		}
		r.commitUpTo++
	}
	r.applyCommitted()
	r.Broadcast(&message{Type: mCommit, UpTo: r.commitUpTo})
}

func (r *Replica) commitTo(upTo uint64, leaderID transport.NodeID) {
	if upTo <= r.commitUpTo {
		return
	}
	// Mark slots committed; request any we never received.
	missing := false
	for n := r.commitUpTo + 1; n <= upTo; n++ {
		s := r.slotAt(n)
		if s == nil {
			continue
		}
		if s.cmd == nil {
			missing = true
			continue
		}
		s.committed = true
	}
	if missing {
		r.Send(leaderID, &message{Type: mCatchup, From: r.commitUpTo + 1})
	}
	for {
		next := r.slotAt(r.commitUpTo + 1)
		if next == nil || !next.committed || next.cmd == nil {
			break
		}
		r.commitUpTo++
	}
	r.applyCommitted()
}

func (r *Replica) applyCommitted() {
	for r.lastApplied < r.commitUpTo {
		n := r.lastApplied + 1
		s := r.slotAt(n)
		if s == nil || s.cmd == nil {
			return
		}
		result := r.sm.Apply(s.cmd)
		r.lastApplied = n
		if p, ok := r.proposals[n]; ok {
			delete(r.proposals, n)
			if p.ballot == r.prepareBallot && r.role == leading {
				p.done(result, nil)
			} else {
				p.done(nil, ErrLostLeadership)
			}
		}
	}
	if r.role == leading {
		r.applied[r.ID()] = r.lastApplied
	}
}

func (r *Replica) onHeartbeat(from transport.NodeID, m *message, now time.Time) bool {
	if m.Ballot.Less(r.promised) {
		r.Send(from, &message{Type: mReject, Ballot: r.promised})
		return false
	}
	if r.role != follower || r.leader != from || r.promised.Less(m.Ballot) {
		r.stepDown(m.Ballot, from)
	}
	r.leaseHoldUntil = now.Add(r.LeaseDuration)
	r.commitTo(m.UpTo, from)
	r.maybeCompact(m.Truncate)
	r.Send(from, &message{Type: mHeartbeatAck, Ballot: m.Ballot, Applied: r.lastApplied, Sent: m.Sent})
	return true
}

func (r *Replica) onHeartbeatAck(from transport.NodeID, m *message, now time.Time) {
	if r.role != leading || m.Ballot != r.prepareBallot {
		return
	}
	// Anchor the lease at the heartbeat's send time (echoed by the
	// follower), never at ack receipt: the follower's promise-withholding
	// window starts when IT saw the heartbeat, which is before the ack got
	// back here. Acks can be reordered by the network, so only move forward.
	sent := time.Unix(0, m.Sent)
	if sent.After(r.leaseAcked[from]) {
		r.leaseAcked[from] = sent
	}
	r.applied[from] = m.Applied
	// A follower that fell behind the truncation horizon needs a snapshot.
	if m.Applied+1 < r.base {
		r.Send(from, &message{Type: mSnapshot, Ballot: r.prepareBallot, UpTo: r.lastApplied, Data: r.sm.Snapshot()})
	}
}

func (r *Replica) onCatchup(from transport.NodeID, m *message) {
	if r.role != leading {
		return
	}
	if m.From < r.base {
		r.Send(from, &message{Type: mSnapshot, Ballot: r.prepareBallot, UpTo: r.lastApplied, Data: r.sm.Snapshot()})
		return
	}
	r.Send(from, &message{
		Type:     mCatchup,
		Ballot:   r.prepareBallot,
		Accepted: r.acceptedFrom(m.From),
		UpTo:     r.commitUpTo,
	})
}

func (r *Replica) onSnapshot(from transport.NodeID, m *message) {
	if m.Ballot.Less(r.promised) || m.UpTo <= r.lastApplied {
		return
	}
	if err := r.sm.Restore(m.Data); err != nil {
		return
	}
	r.slots = nil
	r.base = m.UpTo + 1
	r.commitUpTo = m.UpTo
	r.lastApplied = m.UpTo
}

func (r *Replica) maybeCompact(truncate uint64) {
	if r.CompactEvery <= 0 || truncate < r.base || truncate+1-r.base < uint64(r.CompactEvery) {
		return
	}
	if truncate > r.lastApplied {
		truncate = r.lastApplied
	}
	r.slots = append([]slot(nil), r.slots[truncate+1-r.base:]...)
	r.base = truncate + 1
}

func (r *Replica) onForward(from transport.NodeID, m *message, now time.Time) {
	reply, ok := r.Accept(from, m.ReqID)
	if !ok {
		return
	}
	if r.role != leading {
		reply(nil, ErrNoLeader)
		return
	}
	// Forwarded reads are served from the leader's lease when valid —
	// one forwarding round trip, no log entry.
	if m.Read {
		if result, ok := r.ReadLocal(now, m.Cmd); ok {
			reply(result, nil)
			return
		}
	}
	r.Propose(m.Cmd, reply)
}

// handleCatchupReply processes the accepted suffix returned by onCatchup;
// it shares the mCatchup tag and is routed by the presence of Accepted.
func (r *Replica) handleCatchupReply(from transport.NodeID, m *message) {
	for _, a := range m.Accepted {
		s := r.slotAt(a.Slot)
		if s != nil && s.cmd == nil {
			s.ballot = a.Ballot
			s.cmd = a.Cmd
		}
	}
	r.commitTo(m.UpTo, from)
}
