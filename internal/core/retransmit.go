package core

import "sort"

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
		m := req.fullMerge()
		for _, p := range r.peers {
			if !req.acked[p] {
				r.send(p, m)
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
		// [Q15]
		m := req.prepareMsg()
		for _, p := range r.peers {
			if _, ok := req.acks[p]; !ok {
				r.send(p, m)
			}
		}
	case phaseVote:
		if len(req.denials) > 0 {
			// [Q17] Vote-grace period (Figure 4): a denied vote waits only
			// for acceptors that may still outvote the denial, but a
			// silently crashed or partitioned acceptor never replies at all
			// — it cannot be distinguished from a slow one except by this
			// timeout. Re-sending the same VOTE cannot help (the denial
			// stands until the round moves), so treat the vote as
			// undecidable and retry through the normal NACK machinery.
			r.restartQuery(req)
			return
		}
		// [Q16] Always the full proposal, never a digest or delta: a lost
		// leased VOTE is indistinguishable from a receiver that could not
		// resolve one.
		m := req.voteMsg()
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
	for _, id := range r.inFlightIDs() {
		r.Retransmit(id)
	}
}

// inFlightIDs returns the IDs of every in-flight request — updates,
// queries and the pending reconfiguration — in ascending order: the one
// deterministic order every sweep over in-flight requests uses.
func (r *Replica) inFlightIDs() []uint64 {
	ids := make([]uint64, 0, r.InFlight())
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
	return ids
}
