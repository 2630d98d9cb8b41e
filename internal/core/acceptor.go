package core

import (
	"crdtsmr/internal/crdt"
	"crdtsmr/internal/transport"
	"crdtsmr/internal/wire"
)

// acceptor is the replicated-storage role of Algorithm 2 (lines 25-47).
// Its entire internal state is the CRDT payload plus a single round — the
// paper's "memory overhead of a single counter per replica". It has no log
// and never allocates per-command state.
type acceptor struct {
	state crdt.State
	round Round
}

func newAcceptor(s0 crdt.State) acceptor {
	return acceptor{state: s0, round: initRound()}
}

// applyUpdate executes an update function locally (lines 28-31): the new
// state replaces the payload and the round is clobbered per clobberRound,
// so concurrent VOTE proposals fail their round-equality check unless the
// update came from the current lease holder at the preserved round.
func (a *acceptor) applyUpdate(fu crdt.Update, keep Round) (crdt.State, error) {
	s, err := fu(a.state)
	if err != nil {
		return nil, err
	}
	a.state = s
	a.clobberRound(keep)
	return s, nil
}

// join merges s, when present, into the payload. Every path that grows
// the payload without an update function goes through it.
func (a *acceptor) join(s crdt.State) error {
	if s == nil {
		return nil
	}
	merged, err := a.state.Merge(s)
	if err != nil {
		return err
	}
	a.state = merged
	return nil
}

// handleMerge merges a remote update's payload (lines 32-35).
func (a *acceptor) handleMerge(s crdt.State, keep Round) error {
	if err := a.join(s); err != nil {
		return err
	}
	a.clobberRound(keep)
	return nil
}

// clobberRound invalidates in-flight votes after an update mutates the
// payload — unless the update was issued by the holder of a round lease
// at exactly the acceptor's current round (docs/PROTOCOL.md §5), in which
// case the round survives: the holder's own leased reads always propose a
// superset of its updates, and any *other* proposer's committed state
// still forces a NACK because its round differs. keep is only honored
// when it names a real proposer round — the initRound/writeID sentinels
// have an empty Proposer, so a zero keep never accidentally preserves the
// initial round.
func (a *acceptor) clobberRound(keep Round) {
	if keep.ID.Proposer == "" || a.round != keep {
		a.round.ID = writeID
	}
}

// handlePrepare processes a PREPARE message (lines 36-42). It returns the
// reply to send: an ACK carrying the acceptor's round and payload, or a
// NACK (carrying the same information, per §3.2 "Retrying Requests") when a
// fixed prepare's round number does not exceed the current one.
//
// An incremental prepare (⊥ number) is always accepted: the acceptor
// substitutes its own round number + 1, which is strictly greater (line 39).
// A fixed prepare re-sent with the acceptor's exact current round is
// re-acknowledged idempotently, so proposers can retransmit over lossy
// links without being forced into a retry.
func (a *acceptor) handlePrepare(r Round, s crdt.State) (reply msgType, round Round, state crdt.State, err error) {
	if err := a.join(s); err != nil {
		return 0, Round{}, nil, err
	}
	if r.Incremental() {
		if a.round.ID == r.ID {
			// Duplicate of an incremental prepare already adopted (round
			// IDs are unique per prepare instance): re-ACK the adopted
			// round instead of bumping the number again, so a proposer
			// retransmitting over a lossy link gathers consistent rounds.
			return msgAck, a.round, a.state, nil
		}
		r = Round{Number: a.round.Number + 1, ID: r.ID}
	}
	switch {
	case a.round.Number < r.Number:
		a.round = r
		return msgAck, a.round, a.state, nil
	case a.round == r:
		// Idempotent retransmit of an already-adopted fixed prepare.
		return msgAck, a.round, a.state, nil
	default:
		return msgNack, a.round, a.state, nil
	}
}

// handleVote processes a VOTE message (lines 43-47). The proposed state is
// merged unconditionally — it only contains states already present in a
// quorum of ACKs (Lemma 3.4(ii) relies on this merge happening before the
// VOTED reply). The vote succeeds only if the acceptor's round still equals
// the proposal's round, i.e. no update or competing prepare intervened.
func (a *acceptor) handleVote(r Round, s crdt.State) (reply msgType, round Round, state crdt.State, err error) {
	if err := a.join(s); err != nil {
		return 0, Round{}, nil, err
	}
	if r == a.round {
		return msgVoted, a.round, nil, nil
	}
	return msgNack, a.round, a.state, nil
}

// The Replica's acceptor-side message handlers: they decode what the pure
// acceptor above needs, run it, and answer over the wire.

func (r *Replica) onMerge(from transport.NodeID, m *message) {
	// Per-peer digests are tracked only from frames that carry one — a
	// large state's — and only for configured peers, which bounds the
	// caches by the membership.
	track := contains(r.peers, from)
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
		if track && m.Kind == wire.StateFullDigest {
			// A large state arrives with its digest: a baseline for the
			// sender's future deltas and, when the payload now IS that
			// state, the payload's own digest — nothing to hash here.
			r.xfer.ring(from).add(m.Digest)
			if r.acc.state == m.State {
				r.xfer.digests.Note(m.State, m.Digest)
			}
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
		if r.xfer.holds(from, m.Digest) {
			// The resulting state is already covered here (duplicate or
			// reordered delta): acknowledge without merging. The ring
			// alone decides, so this check never hashes the payload.
			break
		}
		if !r.dominates(from, m.Baseline, track) {
			// Unknown baseline: merging the delta alone could lose the
			// part of the sender's state the baseline carried.
			r.send(from, &message{Type: msgMergeNack, Req: m.Req})
			return
		}
		base, memo := r.xfer.digests.Lookup(m.Baseline)
		exact := memo && base == r.acc.state
		if err := r.acc.handleMerge(m.State, keep); err != nil {
			r.counters.MalformedMsgs++
			return
		}
		r.version++
		if exact {
			// The payload was exactly the baseline, so baseline ⊔ delta
			// makes it exactly the sender's state: its digest is known
			// without hashing, and the next delta onto it or PREPARE
			// announcing it costs no hashing either.
			r.xfer.digests.Note(r.acc.state, m.Digest)
		}
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
// with digest d as last shipped by peer from: either the per-peer digest
// ring holds d (a state of that peer merged here, or vouched for in a
// digest-only ACK — payloads only grow, so once held, dominated forever)
// or the local payload IS that state.
func (r *Replica) dominates(from transport.NodeID, d crdt.Digest, track bool) bool {
	if d.IsZero() {
		return false
	}
	if r.xfer.holds(from, d) {
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
	out := &message{Type: reply, Req: m.Req, Attempt: m.Attempt, Round: round, State: state}
	if m.Kind.HasDigest() && state != nil {
		// The PREPARE announced the proposer's payload digest. If the
		// local post-prepare payload matches, the proposer already holds
		// this exact state: answer with the digest alone (the converged
		// fast path that makes a quorum read cost O(digest) bytes).
		if own, derr := r.xfer.digests.Of(state); derr == nil && own == m.Digest {
			out.State, out.Kind, out.Digest = nil, wire.StateDigest, own
			r.counters.DigestReplies++
			if contains(r.peers, from) {
				// The proposer now knows this acceptor holds the state it
				// announced and will build deltas on it: recognize it.
				r.xfer.ring(from).add(own)
			}
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
			r.denyVote(from, m)
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
			if r.acc.join(m.State) == nil {
				r.version++
			}
			r.denyVote(from, m)
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
	out := &message{Type: reply, Req: m.Req, Attempt: m.Attempt, Round: round, State: state}
	if reply == msgNack && digestVerified {
		// Round-mismatch denial of a digest-verified leased VOTE: the
		// payload here IS the proposer's proposal, so the digest alone
		// lets the proposer resolve the denial's state without shipping
		// a full payload back.
		out.State, out.Kind, out.Digest = nil, wire.StateDigest, m.Digest
	}
	r.send(from, out)
}

// denyVote refuses a leased VOTE whose proposal does not cover the local
// payload, answering with the acceptor's round and full state so the
// proposer gathers it and falls back.
func (r *Replica) denyVote(to transport.NodeID, m *message) {
	r.counters.VotesRejected++
	r.send(to, &message{Type: msgNack, Req: m.Req, Attempt: m.Attempt, Round: r.acc.round, State: r.acc.state})
}
