package core

import "sort"

// retransmit re-drives an in-flight request, covering message loss. Updates re-broadcast MERGE to acceptors that have
// not acknowledged (idempotent: merge is) — always as the full payload,
// since a lost digest or delta frame is indistinguishable from a receiver
// that could not use it. Queries re-send the current attempt's outstanding
// messages: progress already gathered (ACKs, VOTEDs) is kept, the attempt
// is not burned, and no retry is recorded — re-delivery is idempotent at
// the acceptor, and an acceptor that moved on answers NACK, which drives
// the normal retry machinery.
func (r *Replica) retransmit(reqID uint64) {
	if req, ok := r.updates[reqID]; ok {
		m := req.fullMerge()
		for _, p := range r.peers {
			if !req.acked[p] {
				r.send(p, m)
			}
		}
		req.raw = m.StateRaw
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
		r.counters.Rows[15]++
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
			r.restartQuery(req, 17)
			return
		}
		// [Q16] Always the full proposal, never a digest or delta: a lost
		// leased VOTE is indistinguishable from a receiver that could not
		// resolve one.
		r.counters.Rows[16]++
		m := req.voteMsg()
		for _, p := range r.peers {
			if !req.votes[p] && !req.denials[p] {
				r.send(p, m)
			}
		}
	}
}

// Tick is the runtime's retransmit clock: it re-drives every request
// already in flight at the previous Tick, in request-ID order, so a
// request is first re-driven one to two tick intervals after it was sent,
// then every interval. IDs only grow (newReqID), so the last ID issued
// before the previous Tick marks which requests those are.
func (r *Replica) Tick() {
	mark := r.tickMark
	r.tickMark = r.nextReq
	for _, id := range r.inFlightIDs() {
		if id <= mark {
			r.retransmit(id)
		}
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
