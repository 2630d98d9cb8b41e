package core

import (
	"fmt"

	"crdtsmr/internal/crdt"
	"crdtsmr/internal/transport"
)

// The query proposer. Its phase machine (prepare → vote → learned) is the
// table of docs/PROTOCOL.md §1.4; the code cites each row as [Qn].

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

// QueryDone is invoked exactly once when a query learns a state. The state
// must be treated as immutable.
type QueryDone func(crdt.State, QueryStats, error)

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
	// PREPARE announced (large states only); digest-only ACK/NACK replies
	// resolve to it (digest equality is state equality).
	prepared digested

	// seed is the payload the current attempt's PREPARE carried, kept so
	// a retransmit can re-send the same attempt instead of burning it.
	seed crdt.State

	// leased marks an attempt running the prepare-skip fast path;
	// leasable/leaseRound record that the current attempt's ACK quorum
	// agreed on one round, making a lease installable on completion.
	leased     bool
	leasable   bool
	leaseRound Round

	// leasedProp is the leased attempt's proposal with its digest (large
	// states only): it picks each peer's VOTE form, resolves a digest-only
	// denial and, once a peer VOTEDs, becomes that peer's view.
	leasedProp digested

	rtts int
	done QueryDone
}

type ackInfo struct {
	round Round
	state crdt.State
}

// SubmitQuery starts a query command (Algorithm 2, lines 7-24). done fires
// with the learned state once a quorum agrees. The caller applies its query
// function to the learned state (equivalently to line 15/24 sending
// fq(s) to the client).
func (r *Replica) SubmitQuery(done QueryDone) uint64 {
	id := r.newReqID()
	if !r.member {
		// Fail through the callback (the signature has no error return):
		// a non-member holds no quorum and must not serve reads.
		if done != nil {
			done(nil, QueryStats{}, ErrNotMember)
		}
		return id
	}
	req := &queryReq{
		id:   id,
		done: done,
	}
	r.queries[req.id] = req
	if r.opts.Lease && r.lease != nil {
		r.startLeaseAttempt(req) // [Q2]
	} else {
		r.startAttempt(req, Round{Number: NumberIncremental}) // [Q1]
	}
	return req.id
}

// startAttempt begins a (re)prepare attempt for a query with the given
// round template (incremental or fixed). Its PREPARE carries the LUB the
// query has gathered so far: per §3.6 nothing on the first attempt (s0 is
// never sent), the retry seed after that. Retries are counted here and
// nowhere else — every path that restarts a query funnels through this
// function, so Retries == Σ(Attempts−1) holds exactly.
func (r *Replica) startAttempt(req *queryReq, round Round) {
	req.attempt++
	if req.attempt > 1 {
		r.counters.Retries++
	}
	r.beginPrepare(req, round)
}

// restartQuery retries with an incremental prepare seeded with the LUB of
// everything seen so far, which guarantees eventual liveness (§3.2): each
// failed iteration folds at least one more acceptor's updates into the
// seed (§3.5). A leased attempt first falls back, dropping the lease
// (docs/PROTOCOL.md §5.4).
func (r *Replica) restartQuery(req *queryReq) {
	if req.leased {
		r.counters.LeaseFallbacks++
		r.lease = nil
		req.leased = false
	}
	r.startAttempt(req, Round{Number: NumberIncremental})
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
	req.prepared, req.leasedProp = digested{}, digested{}
	req.seed = req.gathered

	// nextSeq advances: a durable transition of the proposer's own (the
	// local acceptor below counts its merge and round adoption itself).
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
	reply, accRound, accState, err := r.acc.handlePrepare(round, req.seed)
	if err == nil && reply == msgAck {
		req.acks[r.id] = ackInfo{round: accRound, state: accState}
	} else if err == nil {
		// [Q4] A fixed prepare below the local round: morph into an
		// incremental prepare (always self-accepted, so this recurses at
		// most once).
		req.gathered = r.mergeGathered(req.gathered, accState)
		r.beginPrepare(req, Round{Number: NumberIncremental})
		return
	}
	req.rtts++
	// Announce the digest of the local post-prepare payload: a remote
	// acceptor whose payload matches answers with the digest alone, and
	// onAck resolves it back to req.prepared. The digest is taken after
	// the local prepare so it covers the seed — the exact state a
	// converged remote acceptor ends up with.
	req.prepared = r.digestIfLarge(r.acc.state)
	r.broadcast(req.prepareMsg())

	// A single-replica cluster decides immediately.
	r.maybeDecidePrepare(req)
}

// prepareMsg is the current attempt's PREPARE, as first broadcast and as
// retransmitted: its round and seed, plus the announced digest when the
// attempt has one.
func (req *queryReq) prepareMsg() *message {
	return withDigest(&message{Type: msgPrepare, Req: req.id, Attempt: req.attempt, Round: req.round, State: req.seed}, req.prepared)
}

// voteMsg is the current attempt's VOTE in full, as first broadcast and
// as retransmitted. A leased proposal's frame names its digest when it
// has one.
func (req *queryReq) voteMsg() *message {
	return withDigest(&message{Type: msgVote, Req: req.id, Attempt: req.attempt, Round: req.round, State: req.proposed, Lease: req.leased}, req.leasedProp)
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

func (r *Replica) onAck(from transport.NodeID, m *message) {
	r.learnFromAck(from, m)
	req, ok := r.queries[m.Req]
	if !ok || m.Attempt != req.attempt || req.phase != phasePrepare {
		r.counters.StaleMsgs++
		return
	}
	if _, dup := req.acks[from]; dup {
		return
	}
	// A digest-only ACK names the state our PREPARE announced.
	state, ok := resolve(m, req.prepared)
	if !ok || state == nil {
		r.counters.MalformedMsgs++
		return
	}
	// [Q5]
	req.acks[from] = ackInfo{round: m.Round, state: state}
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
	// One sweep over the quorum: state identity and round agreement. Round
	// agreement is the lease precondition and is NOT automatic even when
	// every ACK answered our own prepare — under incremental prepares each
	// acceptor substitutes its own number+1, so concurrent traffic leaves
	// them disagreeing.
	states := make([]crdt.State, 0, len(req.acks))
	identical, sameRound := true, true
	var common, max Round
	for _, a := range req.acks {
		if len(states) == 0 {
			common, max = a.round, a.round
		} else {
			identical = identical && a.state == states[0]
			sameRound = sameRound && a.round == common
		}
		if max.Less(a.round) {
			max = a.round
		}
		states = append(states, a.state)
	}
	if r.opts.Lease && sameRound {
		// Whatever this attempt learns, the quorum has confirmed common as
		// the highest round established: the lease is installable once the
		// query completes.
		req.leasable, req.leaseRound = true, common
	}
	if identical {
		// [Q6] Every ACK resolved to the same state value — the norm for a
		// converged large state, whose digest-only ACKs all resolve to the
		// prepared state. Trivially a consistent quorum: skip the O(n)
		// merge-and-compare sweep.
		r.finishQuery(req, states[0], LearnConsistentQuorum)
		return
	}
	lub, err := crdt.MergeAll(states...)
	if err != nil {
		r.counters.MalformedMsgs++
		r.restartQuery(req) // [Q10]
		return
	}

	// (a) [Q6] Learned by consistent quorum: all ACK states equivalent to ⊔S̆.
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

	// (b) [Q7] Consistent rounds: propose ⊔S̆ under the common round.
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
		if voteErr == nil && reply != msgVoted {
			// [Q8]
			req.gathered = r.mergeGathered(req.gathered, accState)
			r.restartQuery(req)
			return
		}
		if voteErr == nil {
			req.votes[r.id] = true
		}
		r.broadcast(req.voteMsg())
		r.maybeDecideVote(req)
		return
	}

	// (c) [Q9] Inconsistent rounds: retry with a fixed prepare at max(R̆)+1
	// (lines 19-21), seeded with the gathered LUB.
	r.startAttempt(req, Round{Number: max.Number + 1})
}

func (r *Replica) onVoted(from transport.NodeID, m *message) {
	req, ok := r.queries[m.Req]
	if !ok || m.Attempt != req.attempt || req.phase != phaseVote {
		r.counters.StaleMsgs++
		return
	}
	// [Q11]
	req.votes[from] = true
	// VOTED to a leased VOTE confirms the peer merged the proposal before
	// replying, so the proposal is a sound per-peer baseline — the next
	// leased read or update can build on it.
	r.learn(from, req.leasedProp)
	r.maybeDecideVote(req)
}

func (r *Replica) maybeDecideVote(req *queryReq) {
	if req.phase == phaseVote && len(req.votes) >= r.quorum {
		// [Q12] Learned by vote: the proposed state is established in a
		// quorum.
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
	// A digest-only NACK names our prepared state or our leased proposal.
	state, _ := resolve(m, req.prepared, req.leasedProp)
	if state != req.proposed {
		// The proposal itself is never worth gathering: the local acceptor
		// merged it when it voted, so a retry's learn already covers it.
		req.gathered = r.mergeGathered(req.gathered, state)
	}
	switch req.phase {
	case phasePrepare:
		// [Q10] A prepare NACK (fixed prepare below the acceptor's round)
		// dooms the phase: retry immediately.
		r.restartQuery(req)
	case phaseVote:
		// [Q13] A denied vote may still be outvoted: retry only once a
		// quorum of VOTED can no longer arrive from acceptors that have not
		// replied. (A crashed acceptor never replies; the runtime's
		// retransmit timeout covers that case.)
		req.denials[from] = true
		replies := len(req.votes) + len(req.denials)
		outstanding := len(r.peers) + 1 - replies
		if len(req.votes)+outstanding < r.quorum {
			r.restartQuery(req) // [Q14]
		}
	}
}

func (r *Replica) finishQuery(req *queryReq, learned crdt.State, path LearnPath) {
	delete(r.queries, req.id)
	r.counters.Queries++
	if path == LearnConsistentQuorum {
		r.counters.ConsistentQuorum++
	} else {
		r.counters.ByVote++
	}
	r.settleLease(req, learned)

	// GLA-Stability (§3.4): remember the largest learned state; return the
	// max. The two are always comparable because the protocol guarantees
	// Consistency (Theorem 3.8). A new learned state is no durable
	// transition of its own: it rides the next record (snapshot.go says
	// why that is safe).
	le, err := r.learned.Compare(learned)
	switch {
	case err == nil && le:
		r.learned = learned
	case err == nil:
		learned = r.learned
	}

	if req.done != nil {
		req.done(learned, QueryStats{RoundTrips: req.rtts, Attempts: int(req.attempt), Path: path, Leased: req.leased}, nil)
	}
}
