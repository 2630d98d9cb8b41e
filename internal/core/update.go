package core

import (
	"fmt"

	"crdtsmr/internal/crdt"
	"crdtsmr/internal/transport"
	"crdtsmr/internal/wire"
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
	state   crdt.State  // the merged payload broadcast in MERGE
	digest  crdt.Digest // digest of state (digest/delta transfer only)
	hasDig  bool
	round   Round // lease round the MERGE asks acceptors to preserve
	lease   bool  // this update was issued while holding the lease
	acked   map[transport.NodeID]bool
	done    UpdateDone
	pending int // remote MERGED replies still needed
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
		r.broadcast(req.fullMerge())
		return req.id, nil
	}
	for _, p := range r.peers {
		r.sendMerge(req, p)
	}
	return req.id, nil
}

// fullMerge is the update's MERGE with the complete payload: the full
// transfer broadcast and every retransmit.
func (req *updateReq) fullMerge() *message {
	return &message{Type: msgMerge, Req: req.id, State: req.state, Round: req.round, Lease: req.lease}
}

// sendMerge ships the update's payload to one peer in the cheapest form
// the transfer mode and the per-peer view allow: a digest alone when the
// peer already acknowledged exactly this state, a delta against the last
// state it acknowledged (delta mode, delta-capable payloads), or the full
// payload. Full is always safe; the other forms are verified by the
// receiver against its own digest cache and fall back via MERGE-NACK.
func (r *Replica) sendMerge(req *updateReq, to transport.NodeID) {
	m := req.fullMerge()
	if view, ok := r.xfer.views[to]; ok && req.hasDig {
		ds, canDelta := req.state.(crdt.DeltaState)
		if view.digest == req.digest {
			r.counters.DigestMerges++
			m.State, m.Kind, m.Digest = nil, wire.StateDigest, req.digest
		} else if canDelta && r.opts.Transfer == TransferDelta && view.state != nil {
			if delta, err := ds.Delta(view.state); err == nil {
				r.counters.DeltaMerges++
				m.State, m.Kind, m.Digest, m.Baseline = delta, wire.StateDelta, req.digest, view.digest
			}
		}
	}
	r.send(to, m)
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
	// The peer durably merged req.state: it is the peer's view from now on.
	req.acked[from] = true
	if req.hasDig {
		r.setView(from, req.digest, req.state)
	}
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
	if req.hasDig && acked < len(r.peers) {
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
	delete(r.xfer.views, from)
	r.counters.MergeFallbacks++
	r.send(from, &message{Type: msgMerge, Req: req.id, State: req.state})
}

func (r *Replica) completeUpdate(req *updateReq) {
	r.counters.Updates++
	if req.done != nil {
		req.done(UpdateStats{RoundTrips: 1}, nil)
	}
}
