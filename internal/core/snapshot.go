package core

import (
	"errors"
	"fmt"

	"crdtsmr/internal/crdt"
)

// Snapshot is the complete durable state of one object replica — the
// paper's headline recovery claim made concrete: a log-free replica
// recovers from its current CRDT payload plus constant-size consensus
// metadata, with no log replay (§1, "memory overhead of a single counter
// per replica"). Everything else a Replica holds (in-flight requests,
// digest/delta transfer caches, the retired-update slot) is volatile and
// safe to lose: requests fail over to the client's retry path and the
// caches repopulate from traffic.
//
// The fields:
//
//   - Round is the acceptor's promised round. Persisting it is the safety
//     half of recovery — a restored acceptor must never promise a lower
//     round than it did before the crash, or a stale proposer could count
//     a quorum it no longer has.
//   - State is the acceptor payload; Learned is the largest state this
//     replica returned to a client (GLA-Stability, §3.4), so reads stay
//     monotone across a restart too. A new Learned is no durable
//     transition of its own: it is written with the key's next record, so
//     a restart may restore an older one. That is safe because a read
//     completes only once its learned state is in a quorum of durable
//     payloads. A remote ACK or VOTED vouching for it leaves only after
//     the record holding that acceptor's payload lands (a runtime
//     releases a key's messages behind every record ordered before them),
//     and the local acceptor's record is ahead of the completion in the
//     same order. Every later quorum read meets that quorum, so after a
//     restart it returns at least the acked state.
//   - NextReq is the request-ID ceiling: every request ID this proposer
//     issued is at or below it (newReqID reserves them in blocks), and a
//     restored proposer issues above it. NextSeq feeds round IDs and is
//     exact. Restoring either keeps post-restart IDs distinct from every
//     pre-crash one: they must never repeat, or late replies to a
//     pre-crash request or round could be counted toward a post-crash
//     one with the same ID.
//   - Config is the membership configuration the replica had adopted
//     (docs/PROTOCOL.md §6). Persisting it is what keeps a reconfigured
//     group safe across restarts: a replica that acked a new config and
//     crashed must not come back serving quorums of the old member set.
type Snapshot struct {
	Round   Round
	State   crdt.State
	Learned crdt.State
	NextReq uint64
	NextSeq uint64
	Config  Config
}

// Snapshot returns the replica's current durable state. The contained
// states are immutable; the snapshot is valid until the next mutation and
// cheap to take (no copying, no encoding).
func (r *Replica) Snapshot() Snapshot {
	return Snapshot{
		Round:   r.acc.round,
		State:   r.acc.state,
		Learned: r.learned,
		NextReq: r.reqCeil,
		NextSeq: r.nextSeq,
		Config:  r.ConfigState(),
	}
}

// StateVersion counts durable-state transitions: it increases whenever
// the payload or the round changed (the acceptor counts those itself),
// nextSeq or the request-ID ceiling advanced, a configuration was adopted
// or a snapshot restored. Runtimes persisting snapshots compare it
// against the version they last wrote to skip no-op writes, so a read
// that changes neither payload nor round writes nothing. A new learned
// state alone does not count (see Snapshot). It may overcount (bumping on
// a transition that left the state equivalent) but never undercounts.
func (r *Replica) StateVersion() uint64 { return r.version + r.acc.changes }

// reqBlock is how many request IDs one durable record reserves.
const reqBlock = 1 << 16

// newReqID issues the next request ID. An ID above the durable ceiling
// raises it by reqBlock and counts a durable transition, so the record
// holding the new ceiling lands before any message carrying the ID
// leaves; within a block, a request writes nothing for its ID.
func (r *Replica) newReqID() uint64 {
	r.nextReq++
	if r.nextReq > r.reqCeil {
		r.reqCeil += reqBlock
		r.version++
	}
	return r.nextReq
}

// Restore rehydrates a replica from a snapshot, merging it into the
// replica's current state: the payload and learned states are joined, the
// round and the proposer counters take the maximum. Joining (rather than
// overwriting) makes Restore monotone — restoring an old snapshot onto a
// replica that has already moved on can never regress the promised round
// or shrink the payload, which is the recovery safety argument in one
// line. Restore is intended for freshly constructed replicas, before any
// command or message is processed.
func (r *Replica) Restore(snap Snapshot) error {
	if snap.State == nil {
		return errors.New("core: restore with nil state")
	}
	merged, err := r.acc.state.Merge(snap.State)
	if err != nil {
		return fmt.Errorf("core: restore payload: %w", err)
	}
	learned := snap.Learned
	if learned == nil {
		learned = snap.State
	}
	mergedLearned, err := r.learned.Merge(learned)
	if err != nil {
		return fmt.Errorf("core: restore learned state: %w", err)
	}
	r.acc.state = merged
	r.learned = mergedLearned
	if r.acc.round.Less(snap.Round) {
		r.acc.round = snap.Round
	}
	// Issue above the restored ceiling: the IDs below it may have been
	// used before the crash.
	if snap.NextReq > r.reqCeil {
		r.reqCeil = snap.NextReq
	}
	if r.nextReq < r.reqCeil {
		r.nextReq = r.reqCeil
	}
	if snap.NextSeq > r.nextSeq {
		r.nextSeq = snap.NextSeq
	}
	// The config joins like everything else: adopt the snapshot's if it
	// supersedes the one the replica was constructed with (it usually does
	// — construction seeds the node's boot-time view, the snapshot has what
	// this replica had actually adopted), keep the newer one otherwise.
	if snap.Config.Supersedes(r.cfg) && len(snap.Config.Members) > 0 {
		r.setConfig(snap.Config)
	}
	// The round lease is deliberately absent from Snapshot and dropped
	// here: a restarted replica must re-earn its fast path through a full
	// quorum read — while it was down, other proposers may have moved the
	// quorum's rounds, and resuming a pre-crash lease would skip the very
	// prepare that detects that.
	r.lease = nil
	r.version++
	return nil
}
