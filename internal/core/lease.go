package core

import (
	"crdtsmr/internal/crdt"
	"crdtsmr/internal/transport"
)

// leaseState is the proposer-side record of a round lease: the last
// learned state and the round a full quorum confirmed as the highest
// established.
type leaseState struct {
	round Round
	state crdt.State
}

// Leased reports whether the replica currently holds a round lease.
func (r *Replica) Leased() bool { return r.lease != nil }

// DropLease relinquishes the round lease, if held. Runtimes call it on
// crash/partition signals; the next successful quorum read re-installs it.
func (r *Replica) DropLease() { r.lease = nil }

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
	if err != nil || reply != msgVoted {
		// [Q3] Nothing was gathered from the wire yet, so the fallback
		// starts like a fresh first attempt: unseeded (§3.6 — the local
		// payload is never shipped in a first prepare).
		r.restartQuery(req, 3)
		return
	}
	req.votes[r.id] = true
	req.rtts++
	// A large proposal goes to each peer in the form its view allows —
	// a digest to a peer that voted for or merged exactly this state, a
	// delta to one that holds an older one — and in full to the rest. The
	// acceptor votes only if its joined payload IS the proposal.
	req.leasedProp = r.digestIfLarge(prop)
	full := req.voteMsg()
	for _, p := range r.peers {
		r.send(p, r.encode(p, full))
	}
	r.maybeDecideVote(req)
}

// settleLease is the lease half of learning (finishQuery): a leased hit
// refreshes the lease it used, and a full attempt whose quorum proved its
// round installs one.
func (r *Replica) settleLease(req *queryReq, learned crdt.State) {
	if req.leased {
		r.counters.LeaseHits++
		// Refresh the lease with the just-learned state — unless it was
		// dropped or replaced while this read was in flight (never
		// resurrect a dropped lease).
		if r.lease != nil && r.lease.round == req.round {
			r.lease = &leaseState{round: req.round, state: learned}
		}
	} else if req.leasable {
		// Install a fresh lease: the attempt proved leaseRound is the
		// highest round established in a quorum. Never replace a newer
		// lease with an older round — a concurrent query may have installed
		// one while this attempt's stragglers arrived.
		if r.lease == nil || !req.leaseRound.Less(r.lease.round) {
			r.lease = &leaseState{round: req.leaseRound, state: learned}
		}
	}
}
