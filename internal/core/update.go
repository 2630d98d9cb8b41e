package core

import (
	"fmt"

	"crdtsmr/internal/crdt"
	"crdtsmr/internal/transport"
)

// UpdateStats describes a completed update. Updates always take exactly one
// round trip (§3.2); the struct exists for symmetry and future extension.
type UpdateStats struct {
	RoundTrips int
}

// UpdateDone is invoked exactly once when an update completes.
type UpdateDone func(UpdateStats, error)

type updateReq struct {
	id      uint64
	payload digested // the merged payload broadcast in MERGE
	round   Round    // lease round the MERGE asks acceptors to preserve
	lease   bool     // this update was issued while holding the lease
	acked   map[transport.NodeID]bool
	done    UpdateDone
	pending int    // remote MERGED replies still needed
	raw     []byte // the payload's encoding, once a full MERGE carried it
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
	req := &updateReq{
		id:      r.newReqID(),
		payload: digested{state: s},
		round:   keep,
		lease:   keep.ID.Proposer != "",
		acked:   make(map[transport.NodeID]bool, len(r.peers)),
		done:    done,
		pending: r.quorum - 1, // the local acceptor already merged
	}
	if req.pending <= 0 {
		r.completeUpdate(req)
		return req.id, nil
	}
	r.updates[req.id] = req
	req.payload, req.raw = r.marshalShipped(s)
	full := req.fullMerge()
	for _, p := range r.peers {
		r.send(p, r.encode(p, full))
	}
	req.raw = full.StateRaw
	return req.id, nil
}

// fullMerge is the update's MERGE with the complete payload: the first
// contact with a peer, every retransmit and every MERGE-NACK fallback. A
// large state's digest rides along, so the receiver records it as a delta
// baseline without hashing the payload again. The payload is encoded when
// the first full MERGE is sent, and its senders keep that encoding in
// req.raw, so an update encodes its payload at most once and not at all
// when every peer takes a digest or a delta.
func (req *updateReq) fullMerge() *message {
	return withDigest(&message{Type: msgMerge, Req: req.id, State: req.payload.state, StateRaw: req.raw, Round: req.round, Lease: req.lease}, req.payload)
}

func (r *Replica) onMerged(from transport.NodeID, m *message) {
	req, live := r.updates[m.Req]
	if !live && r.retired != nil && r.retired.id == m.Req {
		// A straggler MERGED for an already-answered update: no client to
		// notify, but the peer's view still advances.
		req = r.retired
	}
	if req == nil || req.acked[from] {
		if !live {
			r.counters.StaleMsgs++
		}
		return
	}
	// The peer durably merged req.payload: it is the peer's view from now on.
	req.acked[from] = true
	r.learn(from, req.payload)
	if !live {
		if len(req.acked) >= len(r.peers) {
			r.retired = nil
		}
		return
	}
	req.pending--
	if req.pending <= 0 {
		r.retire(req, len(req.acked))
		r.completeUpdate(req)
	}
}

// retire removes req from the in-flight set. While a peer has not
// acknowledged it (acked < peers), it stays in the retired slot: a digest
// or delta MERGE that peer rejects is answered from there with the full
// state (onMergeNack), and a late MERGED still advances the peer's view.
// Without it, an answered or aborted update could leave that peer
// unconverged until unrelated later traffic.
func (r *Replica) retire(req *updateReq, acked int) {
	delete(r.updates, req.id)
	if req.payload.ok && acked < len(r.peers) {
		r.retired = req
	}
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
	r.unlearn(from)
	r.counters.MergeFallbacks++
	full := req.fullMerge()
	r.send(from, full)
	req.raw = full.StateRaw
}

func (r *Replica) completeUpdate(req *updateReq) {
	r.counters.Updates++
	if req.done != nil {
		req.done(UpdateStats{RoundTrips: 1}, nil)
	}
}
