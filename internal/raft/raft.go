package raft

import (
	"errors"
	"fmt"
	"time"

	"crdtsmr/internal/rsm"
	"crdtsmr/internal/transport"
)

// ErrNoLeader is reported when a command cannot be routed to a leader.
const ErrNoLeader = rsm.Transient("raft: no known leader")

// ErrLostLeadership is reported when a proposed entry was overwritten by a
// competing leader before committing.
const ErrLostLeadership = rsm.Transient("raft: leadership lost before commit")

type role uint8

const (
	follower role = iota + 1
	candidate
	leader
)

// Replica is the pure Raft state machine. All methods must be called from
// one goroutine; outbound messages accumulate in the outbox.
type Replica struct {
	id     transport.NodeID
	peers  []transport.NodeID
	quorum int
	sm     rsm.StateMachine

	term     uint64
	votedFor transport.NodeID
	role     role
	leader   transport.NodeID // best-known leader ("" if unknown)

	// Log with snapshot-based compaction: log[i] holds the entry at index
	// snapIndex+1+i. Index 0 is the birth of the log.
	log       []Entry
	snapIndex uint64
	snapTerm  uint64
	snapshot  []byte

	commitIndex uint64
	lastApplied uint64

	// Candidate state.
	votes map[transport.NodeID]bool

	// Leader state. inflight gates replication per follower so each gets
	// at most one append/snapshot per round trip (self-clocking pipeline);
	// HeartbeatTick re-opens the gate, covering lost responses.
	nextIndex  map[transport.NodeID]uint64
	matchIndex map[transport.NodeID]uint64
	inflight   map[transport.NodeID]bool

	// Client plumbing.
	proposals     map[uint64]*proposal // by log index (leader side)
	forwards      map[uint64]rsm.Done  // by forward request ID (origin side)
	nextForwardID uint64

	// Forward dedup (receiver side): request IDs already seen per origin.
	// The network may duplicate a forwarded command; without this a leader
	// would append — and commit — the same non-idempotent command twice.
	forwardSeen map[transport.NodeID]map[uint64]struct{}
	forwardMax  map[transport.NodeID]uint64

	// CompactEvery triggers a snapshot after this many applied entries
	// beyond the last snapshot (0 disables compaction).
	CompactEvery int

	outbox []rsm.Envelope
}

type proposal struct {
	term uint64
	done rsm.Done
}

var _ rsm.Replica = (*Replica)(nil)

// NewReplica creates a Raft participant. members must include id.
func NewReplica(id transport.NodeID, members []transport.NodeID, sm rsm.StateMachine) (*Replica, error) {
	peers := make([]transport.NodeID, 0, len(members)-1)
	self := false
	for _, m := range members {
		if m == id {
			self = true
			continue
		}
		peers = append(peers, m)
	}
	if !self {
		return nil, fmt.Errorf("raft: %s not in member list %v", id, members)
	}
	return &Replica{
		id:           id,
		peers:        peers,
		quorum:       len(members)/2 + 1,
		sm:           sm,
		role:         follower,
		proposals:    make(map[uint64]*proposal),
		forwards:     make(map[uint64]rsm.Done),
		forwardSeen:  make(map[transport.NodeID]map[uint64]struct{}),
		forwardMax:   make(map[transport.NodeID]uint64),
		CompactEvery: 4096,
	}, nil
}

// ID returns the replica ID.
func (r *Replica) ID() transport.NodeID { return r.id }

// IsLeader reports whether this replica currently believes it leads.
func (r *Replica) IsLeader() bool { return r.role == leader }

// Leader returns the best-known leader, or "".
func (r *Replica) Leader() transport.NodeID {
	if r.role == leader {
		return r.id
	}
	return r.leader
}

// Term returns the current term (for tests and metrics).
func (r *Replica) Term() uint64 { return r.term }

// LogLen returns the number of live (uncompacted) log entries.
func (r *Replica) LogLen() int { return len(r.log) }

// TakeOutbox returns and clears pending outbound messages.
func (r *Replica) TakeOutbox() []rsm.Envelope {
	out := r.outbox
	r.outbox = nil
	return out
}

func (r *Replica) send(to transport.NodeID, m *message) {
	r.outbox = append(r.outbox, rsm.Envelope{To: to, Payload: m.encode()})
}

func (r *Replica) lastIndex() uint64 { return r.snapIndex + uint64(len(r.log)) }

func (r *Replica) termAt(idx uint64) uint64 {
	switch {
	case idx == r.snapIndex:
		return r.snapTerm
	case idx > r.snapIndex && idx <= r.lastIndex():
		return r.log[idx-r.snapIndex-1].Term
	default:
		return 0
	}
}

func (r *Replica) entriesFrom(idx uint64) []Entry {
	if idx > r.lastIndex() {
		return nil
	}
	src := r.log[idx-r.snapIndex-1:]
	out := make([]Entry, len(src))
	copy(out, src)
	return out
}

// --- timers (driven by the runtime) ---

// ElectionTimeout starts an election (follower/candidate) or is ignored by
// a leader. Raft keeps no lease, so the runtime's clock is unused here and
// in HeartbeatTick and Deliver.
func (r *Replica) ElectionTimeout(time.Time) {
	if r.role == leader {
		return
	}
	r.term++
	r.role = candidate
	r.votedFor = r.id
	r.leader = ""
	r.votes = map[transport.NodeID]bool{r.id: true}
	m := &message{
		Type:      mRequestVote,
		Term:      r.term,
		LastIndex: r.lastIndex(),
		LastTerm:  r.termAt(r.lastIndex()),
	}
	for _, p := range r.peers {
		r.send(p, m)
	}
	r.maybeWinElection()
}

// HeartbeatTick makes a leader replicate/heartbeat to every follower.
func (r *Replica) HeartbeatTick(time.Time) {
	if r.role != leader {
		return
	}
	for _, p := range r.peers {
		r.inflight[p] = false // retransmit window: response lost or slow
		r.replicateTo(p)
	}
}

func (r *Replica) replicateTo(p transport.NodeID) {
	if r.inflight[p] {
		return
	}
	r.inflight[p] = true
	next := r.nextIndex[p]
	if next <= r.snapIndex {
		// The follower is behind the snapshot horizon.
		r.send(p, &message{
			Type:      mSnapshot,
			Term:      r.term,
			LastIndex: r.snapIndex,
			LastTerm:  r.snapTerm,
			Data:      r.snapshot,
		})
		return
	}
	prev := next - 1
	r.send(p, &message{
		Type:      mAppend,
		Term:      r.term,
		PrevIndex: prev,
		PrevTerm:  r.termAt(prev),
		Entries:   r.entriesFrom(next),
		Commit:    r.commitIndex,
	})
}

// --- client commands ---

// Propose submits a command. On the leader it is appended directly; on a
// follower it is forwarded to the known leader; with no known leader the
// callback fires immediately with ErrNoLeader so the caller can retry.
// done fires exactly once.
func (r *Replica) Propose(cmd []byte, done rsm.Done) {
	switch {
	case r.role == leader:
		r.appendLocal(cmd, done)
	case r.leader != "":
		r.nextForwardID++
		fid := r.nextForwardID
		r.forwards[fid] = done
		r.send(r.leader, &message{Type: mForward, ReqID: fid, Cmd: cmd})
	default:
		done(nil, ErrNoLeader)
	}
}

// ProposeRead rides the log like any command: the paper's Raft baseline
// "appends both updates and consistent reads to its command log" (§4.1).
func (r *Replica) ProposeRead(cmd []byte, done rsm.Done) { r.Propose(cmd, done) }

// ReadLocal never serves: there is no read lease.
func (r *Replica) ReadLocal(time.Time, []byte) ([]byte, bool) { return nil, false }

// FailForwards aborts forwarded commands still waiting for a leader reply;
// the runtime calls this on retry timeouts.
func (r *Replica) FailForwards() {
	for id, done := range r.forwards {
		delete(r.forwards, id)
		done(nil, ErrNoLeader)
	}
}

func (r *Replica) appendLocal(cmd []byte, done rsm.Done) {
	r.log = append(r.log, Entry{Term: r.term, Cmd: cmd})
	idx := r.lastIndex()
	if done != nil {
		r.proposals[idx] = &proposal{term: r.term, done: done}
	}
	r.matchIndex[r.id] = idx
	if r.quorum == 1 {
		r.advanceCommit()
	}
	for _, p := range r.peers {
		r.replicateTo(p)
	}
}

// --- message handling ---

// Deliver processes one inbound message. It returns true if the message
// was a valid heartbeat/append/vote-grant that should reset the caller's
// election timer.
func (r *Replica) Deliver(from transport.NodeID, payload []byte, _ time.Time) bool {
	m, err := decodeMessage(payload)
	if err != nil {
		return false
	}
	if m.Term > r.term {
		r.becomeFollower(m.Term, "")
	}
	switch m.Type {
	case mRequestVote:
		return r.onRequestVote(from, m)
	case mVote:
		r.onVote(from, m)
	case mAppend:
		return r.onAppend(from, m)
	case mAppendResp:
		r.onAppendResp(from, m)
	case mSnapshot:
		return r.onSnapshot(from, m)
	case mSnapshotResp:
		r.onSnapshotResp(from, m)
	case mForward:
		r.onForward(from, m)
	case mForwardResp:
		r.onForwardResp(m)
	}
	return false
}

func (r *Replica) becomeFollower(term uint64, leaderID transport.NodeID) {
	wasLeader := r.role == leader
	r.term = term
	r.role = follower
	r.votedFor = ""
	r.leader = leaderID
	r.votes = nil
	if wasLeader {
		r.failProposals()
	}
}

// Crash fails every forwarded and proposed command still in flight.
func (r *Replica) Crash() {
	r.FailForwards()
	r.failProposals()
}

func (r *Replica) failProposals() {
	for idx, p := range r.proposals {
		delete(r.proposals, idx)
		p.done(nil, ErrLostLeadership)
	}
}

func (r *Replica) onRequestVote(from transport.NodeID, m *message) bool {
	grant := false
	if m.Term >= r.term && (r.votedFor == "" || r.votedFor == from) && r.role != leader {
		myLast := r.lastIndex()
		myTerm := r.termAt(myLast)
		upToDate := m.LastTerm > myTerm || (m.LastTerm == myTerm && m.LastIndex >= myLast)
		if upToDate {
			grant = true
			r.votedFor = from
		}
	}
	r.send(from, &message{Type: mVote, Term: r.term, Granted: grant})
	return grant
}

func (r *Replica) onVote(from transport.NodeID, m *message) {
	if r.role != candidate || m.Term != r.term || !m.Granted {
		return
	}
	r.votes[from] = true
	r.maybeWinElection()
}

func (r *Replica) maybeWinElection() {
	if r.role != candidate || len(r.votes) < r.quorum {
		return
	}
	r.role = leader
	r.leader = r.id
	r.nextIndex = make(map[transport.NodeID]uint64, len(r.peers))
	r.matchIndex = make(map[transport.NodeID]uint64, len(r.peers)+1)
	r.inflight = make(map[transport.NodeID]bool, len(r.peers))
	for _, p := range r.peers {
		r.nextIndex[p] = r.lastIndex() + 1
	}
	// Commit barrier: a no-op in the new term lets the leader commit
	// entries from previous terms (§5.4.2 of the Raft paper).
	r.appendLocal(rsm.EncodeNoop(), nil)
}

func (r *Replica) onAppend(from transport.NodeID, m *message) bool {
	if m.Term < r.term {
		r.send(from, &message{Type: mAppendResp, Term: r.term, Success: false, Match: 0})
		return false
	}
	if r.role != follower || r.leader != from {
		r.becomeFollower(m.Term, from)
	}
	// Log-matching check at PrevIndex/PrevTerm.
	if m.PrevIndex > r.lastIndex() || (m.PrevIndex >= r.snapIndex && r.termAt(m.PrevIndex) != m.PrevTerm) {
		// Fast backoff: tell the leader our last plausible index.
		hint := r.lastIndex()
		if m.PrevIndex <= hint {
			hint = m.PrevIndex - 1
		}
		r.send(from, &message{Type: mAppendResp, Term: r.term, Success: false, Match: hint})
		return true
	}
	// Append entries, truncating conflicts.
	idx := m.PrevIndex
	for _, e := range m.Entries {
		idx++
		if idx <= r.snapIndex {
			continue // already compacted, hence committed and identical
		}
		if idx <= r.lastIndex() {
			if r.termAt(idx) == e.Term {
				continue
			}
			r.log = r.log[:idx-r.snapIndex-1] // conflict: truncate suffix
		}
		r.log = append(r.log, e)
	}
	last := m.PrevIndex + uint64(len(m.Entries))
	if m.Commit > r.commitIndex {
		r.commitIndex = min(m.Commit, r.lastIndex())
		r.applyCommitted()
	}
	r.send(from, &message{Type: mAppendResp, Term: r.term, Success: true, Match: last})
	return true
}

func (r *Replica) onAppendResp(from transport.NodeID, m *message) {
	if r.role != leader || m.Term != r.term {
		return
	}
	r.inflight[from] = false
	if m.Success {
		if m.Match > r.matchIndex[from] {
			r.matchIndex[from] = m.Match
		}
		if m.Match+1 > r.nextIndex[from] {
			r.nextIndex[from] = m.Match + 1
		}
		r.advanceCommit()
		if r.nextIndex[from] <= r.lastIndex() {
			r.replicateTo(from)
		}
		return
	}
	// Rejected: back off using the follower's hint and retry.
	next := m.Match + 1
	if next < 1 {
		next = 1
	}
	if next < r.nextIndex[from] {
		r.nextIndex[from] = next
	} else if r.nextIndex[from] > 1 {
		r.nextIndex[from]--
	}
	r.replicateTo(from)
}

func (r *Replica) advanceCommit() {
	for n := r.lastIndex(); n > r.commitIndex; n-- {
		if r.termAt(n) != r.term {
			break // only entries of the current term commit by counting
		}
		count := 1 // self
		for _, p := range r.peers {
			if r.matchIndex[p] >= n {
				count++
			}
		}
		if count >= r.quorum {
			r.commitIndex = n
			r.applyCommitted()
			break
		}
	}
}

func (r *Replica) applyCommitted() {
	for r.lastApplied < r.commitIndex {
		r.lastApplied++
		e := r.log[r.lastApplied-r.snapIndex-1]
		result := r.sm.Apply(e.Cmd)
		if p, ok := r.proposals[r.lastApplied]; ok {
			delete(r.proposals, r.lastApplied)
			if p.term == e.Term {
				p.done(result, nil)
			} else {
				p.done(nil, ErrLostLeadership)
			}
		}
	}
	r.maybeCompact()
}

// maybeCompact snapshots the state machine and truncates the applied log
// prefix, bounding memory — the log-management burden the paper's protocol
// avoids by construction.
func (r *Replica) maybeCompact() {
	if r.CompactEvery <= 0 || r.lastApplied-r.snapIndex < uint64(r.CompactEvery) {
		return
	}
	r.snapshot = r.sm.Snapshot()
	r.snapTerm = r.termAt(r.lastApplied)
	r.log = r.entriesFrom(r.lastApplied + 1)
	r.snapIndex = r.lastApplied
}

func (r *Replica) onSnapshot(from transport.NodeID, m *message) bool {
	if m.Term < r.term {
		return false
	}
	if r.role != follower || r.leader != from {
		r.becomeFollower(m.Term, from)
	}
	if m.LastIndex <= r.snapIndex {
		r.send(from, &message{Type: mSnapshotResp, Term: r.term, Match: r.snapIndex})
		return true
	}
	if err := r.sm.Restore(m.Data); err != nil {
		return true
	}
	r.snapshot = m.Data
	r.snapIndex = m.LastIndex
	r.snapTerm = m.LastTerm
	r.log = nil
	r.commitIndex = m.LastIndex
	r.lastApplied = m.LastIndex
	r.send(from, &message{Type: mSnapshotResp, Term: r.term, Match: m.LastIndex})
	return true
}

func (r *Replica) onSnapshotResp(from transport.NodeID, m *message) {
	if r.role != leader || m.Term != r.term {
		return
	}
	r.inflight[from] = false
	if m.Match > r.matchIndex[from] {
		r.matchIndex[from] = m.Match
	}
	r.nextIndex[from] = m.Match + 1
	if r.nextIndex[from] <= r.lastIndex() {
		r.replicateTo(from)
	}
}

// forwardDedupWindow is how far behind an origin's highest-seen request ID
// a remembered ID is kept. Request IDs increase per origin, so anything
// this far back can no longer be a late first delivery.
const forwardDedupWindow = 1 << 12

// dupForward records (origin, reqID) and reports whether it was already
// seen. Duplicates are dropped silently: the first delivery's response
// path answers the origin, and the origin ignores unknown request IDs.
func (r *Replica) dupForward(origin transport.NodeID, reqID uint64) bool {
	seen := r.forwardSeen[origin]
	if seen == nil {
		seen = make(map[uint64]struct{})
		r.forwardSeen[origin] = seen
	}
	if _, ok := seen[reqID]; ok {
		return true
	}
	seen[reqID] = struct{}{}
	if reqID > r.forwardMax[origin] {
		r.forwardMax[origin] = reqID
	}
	if len(seen) > 2*forwardDedupWindow {
		max := r.forwardMax[origin]
		for id := range seen {
			if id+forwardDedupWindow < max {
				delete(seen, id)
			}
		}
	}
	return false
}

func (r *Replica) onForward(from transport.NodeID, m *message) {
	if r.dupForward(from, m.ReqID) {
		return
	}
	if r.role != leader {
		r.send(from, &message{Type: mForwardResp, ReqID: m.ReqID, Err: ErrNoLeader.Error()})
		return
	}
	origin := from
	reqID := m.ReqID
	r.appendLocal(m.Cmd, func(result []byte, err error) {
		resp := &message{Type: mForwardResp, ReqID: reqID, Data: result}
		if err != nil {
			resp.Err = err.Error()
		}
		r.send(origin, resp)
	})
}

func (r *Replica) onForwardResp(m *message) {
	done, ok := r.forwards[m.ReqID]
	if !ok {
		return
	}
	delete(r.forwards, m.ReqID)
	if m.Err != "" {
		if m.Err == ErrNoLeader.Error() {
			done(nil, ErrNoLeader)
		} else {
			done(nil, errors.New(m.Err))
		}
		return
	}
	done(m.Data, nil)
}
