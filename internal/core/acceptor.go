package core

import (
	"crdtsmr/internal/crdt"
	"crdtsmr/internal/transport"
)

// acceptor is the replicated-storage role of Algorithm 2 (lines 25-47).
// Its entire internal state is the CRDT payload plus a single round — the
// paper's "memory overhead of a single counter per replica". It has no log
// and never allocates per-command state.
type acceptor struct {
	state crdt.State
	round Round

	// changes counts the transitions that replaced state or moved round:
	// the acceptor's share of StateVersion. A merge that learns nothing
	// returns the payload itself (crdt types return a dominating operand,
	// the receiver first), so a converged read changes neither and counts
	// nothing. A payload replaced by an equivalent one counts; that only
	// overcounts.
	changes uint64
}

func newAcceptor(s0 crdt.State) acceptor {
	return acceptor{state: s0, round: initRound()}
}

// setState replaces the payload, counting a change unless s is the payload.
func (a *acceptor) setState(s crdt.State) {
	if s != a.state {
		a.state = s
		a.changes++
	}
}

// setRound moves the round, counting a change unless it stays put.
func (a *acceptor) setRound(r Round) {
	if r != a.round {
		a.round = r
		a.changes++
	}
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
	a.setState(s)
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
	a.setState(merged)
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
		a.setRound(Round{Number: a.round.Number, ID: writeID})
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
		a.setRound(r)
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

// The Replica's acceptor-side message handlers: they resolve the frame
// (accept, transfer.go), run the pure acceptor above, and answer over the
// wire.

func (r *Replica) onMerge(from transport.NodeID, m *message) {
	switch r.accept(from, m) {
	case acceptBad:
		r.counters.MalformedMsgs++
		return
	case acceptUnknown:
		r.send(from, &message{Type: msgMergeNack, Req: m.Req})
		return
	case acceptJoined:
		// A lease-holder MERGE names the round the sender's lease rests
		// on; acceptors still at exactly that round keep it.
		keep := Round{}
		if m.Lease {
			keep = m.Round
		}
		r.acc.clobberRound(keep)
	}
	r.send(from, &message{Type: msgMerged, Req: m.Req})
}

func (r *Replica) onPrepare(from transport.NodeID, m *message) {
	reply, round, state, err := r.acc.handlePrepare(m.Round, m.State)
	if err != nil {
		r.counters.MalformedMsgs++
		return
	}
	if reply == msgAck {
		r.counters.PreparesAccepted++
	} else {
		r.counters.PreparesRejected++
	}
	out := &message{Type: reply, Req: m.Req, Attempt: m.Attempt, Round: round, State: state}
	r.answerPrepare(from, m, out)
	r.send(from, out)
}

func (r *Replica) onVote(from transport.NodeID, m *message) {
	// The proposal is joined whatever the outcome: Lemma 3.4(ii) needs the
	// merge before any reply, and a denial's state then covers it.
	res := r.accept(from, m)
	if res == acceptBad {
		r.counters.MalformedMsgs++
		return
	}
	// A leased VOTE skipped the prepare phase, so the round-equality check
	// alone does not prove the proposal covers this acceptor — an
	// incremental PREPARE delivered late can re-mint the leased round
	// (Number = local+1 collides) at an acceptor whose payload moved on.
	// Re-verify the consistent-quorum condition here: vote only if the
	// joined payload IS the proposal. Any update committed before the read
	// began sits in a quorum of payloads and so forces a denial in every
	// intersecting vote quorum. A digest or delta this acceptor cannot
	// resolve is denied the same way, with the full state, so the proposer
	// gathers it and falls back.
	covered := res != acceptUnknown && (!m.Lease || r.isSenderState(m))
	// accept already joined the proposal; a nil join cannot fail.
	reply, round, state, _ := r.acc.handleVote(m.Round, nil)
	if !covered {
		reply, state = msgNack, r.acc.state
	}
	if reply == msgVoted {
		r.counters.VotesAccepted++
	} else {
		r.counters.VotesRejected++
	}
	out := &message{Type: reply, Req: m.Req, Attempt: m.Attempt, Round: round, State: state}
	if reply == msgNack && covered && m.Lease {
		echoDigest(out, m)
	}
	r.send(from, out)
}
