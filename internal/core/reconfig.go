package core

import (
	"sort"

	"crdtsmr/internal/crdt"
	"crdtsmr/internal/transport"
)

// SubmitReconfigure starts a reconfiguration round proposing a new member
// set (docs/PROTOCOL.md §6). The proposer mints the next epoch, adopts it
// locally, and broadcasts RECONFIG — config plus its full payload — to
// the union of the old and new member sets. done fires with nil once a
// joint quorum (a majority of the old members AND a majority of the new)
// has accepted, with ErrConfigConflict if a competing configuration
// supersedes the proposal first, or with ErrAborted on Abort.
//
// At most one reconfiguration may be in flight per replica; the member
// set is validated and canonicalized (sorted, duplicate-free). Proposing
// a set that removes this replica is allowed — the node drives the round
// to commit and then refuses further client commands with ErrNotMember.
func (r *Replica) SubmitReconfigure(members []transport.NodeID, done func(error)) (uint64, error) {
	if !r.member {
		return 0, ErrNotMember
	}
	if r.reconfig != nil {
		return 0, ErrReconfigInFlight
	}
	norm, err := normalizeMembers(members)
	if err != nil {
		return 0, err
	}
	old := r.cfg
	cand := Config{Epoch: old.Epoch + 1, Source: r.id, Members: norm}
	req := &reconfigReq{
		id:    r.newReqID(),
		cfg:   cand,
		old:   old.Members,
		acked: map[transport.NodeID]bool{r.id: true},
		done:  done,
	}
	seen := map[transport.NodeID]bool{r.id: true}
	for _, set := range [][]transport.NodeID{old.Members, norm} {
		for _, id := range set {
			if !seen[id] {
				seen[id] = true
				req.targets = append(req.targets, id)
			}
		}
	}
	sort.Slice(req.targets, func(i, j int) bool { return req.targets[i] < req.targets[j] })

	// Self-adoption before broadcast: the proposer is the first acceptor
	// of its own proposal, and every message it sends from here on is
	// stamped with the new epoch. In-flight requests migrate (queries
	// restart, update quorums recompute) exactly as on a remote adoption.
	r.adoptConfig(cand, nil)
	r.reconfig = req
	for _, p := range req.targets {
		r.sendReconfig(p, req.id)
	}
	r.maybeCommitReconfig()
	return req.id, nil
}

// sendReconfig ships the replica's current configuration and full payload
// to one peer: the reconfiguration proposal while one is pending, and the
// config-push that repairs epoch mismatches otherwise. Carrying the
// payload makes it the complete bootstrap of a joining replica — the
// paper's log-free state is one CRDT join away, no log replay.
func (r *Replica) sendReconfig(to transport.NodeID, reqID uint64) {
	m := r.configMsg(msgReconfig, reqID)
	m.State = r.acc.state
	r.send(to, m)
}

// sendEpochNack tells a peer holding a different configuration what this
// replica's config is (members, no payload). The peer adopts it if it
// supersedes its own, or pushes its greater config back.
func (r *Replica) sendEpochNack(to transport.NodeID, reqID uint64) {
	r.send(to, r.configMsg(msgEpochNack, reqID))
}

// configMsg is a config frame of type t carrying the replica's current
// configuration.
func (r *Replica) configMsg(t msgType, reqID uint64) *message {
	return &message{Type: t, Req: reqID, NewEpoch: r.cfg.Epoch, Source: r.cfg.Source, Members: r.cfg.Members}
}

// adoptConfig installs cand if it supersedes the current config, merging
// an optional pushed payload, and migrates every in-flight request to the
// new configuration. Returns whether the config changed.
func (r *Replica) adoptConfig(cand Config, state crdt.State) bool {
	if !cand.Supersedes(r.cfg) {
		return false
	}
	if err := r.acc.join(state); err != nil {
		r.counters.MalformedMsgs++
	}
	// The quorum system changed under every in-flight vote: clobber the
	// acceptor round (as an update would) so no VOTE counted under the old
	// configuration can still succeed here, and drop the lease — it was
	// proven against a quorum that no longer exists.
	r.acc.clobberRound(Round{})
	r.lease = nil
	// Transfer caches are only maintained for members; drop assumptions
	// about nodes the new configuration removed.
	for _, p := range r.peers {
		if !contains(cand.Members, p) {
			r.xfer.forget(p)
		}
	}
	r.setConfig(cand)
	r.version++
	r.counters.ConfigAdoptions++
	// A competing configuration supersedes any reconfiguration this
	// replica still has pending: report the conflict; the config has
	// already converged to the winner.
	if r.reconfig != nil && !sameConfig(r.reconfig.cfg, cand) {
		req := r.reconfig
		r.reconfig = nil
		if req.done != nil {
			req.done(ErrConfigConflict)
		}
	}
	r.migrateInFlight()
	return true
}

// migrateInFlight moves every in-flight client request onto the replica's
// (just-adopted) configuration: updates recompute their quorum against
// the new member set, queries restart their attempt. If the new
// configuration removed this replica, everything fails with ErrNotMember
// instead — clients refresh their member list and retry elsewhere.
func (r *Replica) migrateInFlight() {
	if !r.member {
		for _, id := range r.inFlightIDs() {
			if req, ok := r.updates[id]; ok {
				delete(r.updates, id)
				if req.done != nil {
					req.done(UpdateStats{}, ErrNotMember)
				}
			} else if req, ok := r.queries[id]; ok {
				delete(r.queries, id)
				if req.done != nil {
					req.done(nil, QueryStats{RoundTrips: req.rtts, Attempts: int(req.attempt)}, ErrNotMember)
				}
			}
		}
		return
	}

	// Updates: the local acceptor has merged; MERGEDs from acceptors no
	// longer in the group no longer count, ones already gathered from
	// staying members still do. An update that now has its quorum
	// completes; one that needs more is re-driven by retransmission
	// (Retransmit sends full-state MERGEs to every unacked current peer,
	// including members that just joined).
	for _, id := range r.inFlightIDs() {
		req, ok := r.updates[id]
		if !ok {
			continue
		}
		acked := 0
		for _, p := range r.peers {
			if req.acked[p] {
				acked++
			}
		}
		req.pending = r.quorum - 1 - acked
		if req.pending <= 0 {
			r.retire(req, acked)
			r.completeUpdate(req)
		}
	}

	// [Q18] Queries: the attempt in flight was addressed to the old member
	// set under a round the adoption just clobbered; restart it (counted as
	// a retry) under the new configuration. The adoption already dropped
	// the lease, so a leased attempt restarts without a fallback.
	for _, id := range r.inFlightIDs() {
		if req, ok := r.queries[id]; ok {
			req.leased = false
			r.startAttempt(req, Round{Number: NumberIncremental})
		}
	}
}

// maybeCommitReconfig completes the pending reconfiguration once its
// joint quorum is in.
func (r *Replica) maybeCommitReconfig() {
	req := r.reconfig
	if req == nil || !req.committed() {
		return
	}
	r.reconfig = nil
	r.counters.ReconfigCommits++
	if req.done != nil {
		req.done(nil)
	}
}

// onReconfig processes a RECONFIG frame: a reconfiguration proposal or a
// config push. The config lattice decides — adopt and ack anything
// greater, re-ack the current config idempotently (retransmits), answer
// anything older with EPOCH-NACK so the sender converges forward.
func (r *Replica) onReconfig(from transport.NodeID, m *message) {
	if len(m.Members) == 0 {
		r.counters.MalformedMsgs++
		return
	}
	cand := Config{Epoch: m.NewEpoch, Source: m.Source, Members: m.Members}
	switch {
	case sameConfig(cand, r.cfg):
		if m.State != nil {
			if err := r.acc.join(m.State); err != nil {
				r.counters.MalformedMsgs++
				return
			}
			r.acc.clobberRound(Round{})
		}
		r.send(from, &message{Type: msgReconfigAck, Req: m.Req})
	case cand.Supersedes(r.cfg):
		r.adoptConfig(cand, m.State)
		r.send(from, &message{Type: msgReconfigAck, Req: m.Req})
	default:
		r.counters.EpochNacks++
		r.sendEpochNack(from, m.Req)
	}
}

// onReconfigAck counts an acceptance toward the pending reconfiguration's
// joint quorum. Acks are matched by epoch: any ack at the proposal's
// epoch answers a frame this replica sent carrying exactly that config
// (a competing same-epoch config would have been acked to its own
// proposer, not here).
func (r *Replica) onReconfigAck(from transport.NodeID, m *message) {
	req := r.reconfig
	if req == nil || m.Epoch != req.cfg.Epoch || req.acked[from] {
		r.counters.StaleMsgs++
		return
	}
	req.acked[from] = true
	r.maybeCommitReconfig()
}

// onEpochNack reconciles configurations after a peer refused a message:
// adopt the peer's config if it is ahead, push ours if it is behind.
func (r *Replica) onEpochNack(from transport.NodeID, m *message) {
	cand := Config{Epoch: m.NewEpoch, Source: m.Source, Members: m.Members}
	switch {
	case cand.Supersedes(r.cfg):
		if len(m.Members) == 0 {
			r.counters.MalformedMsgs++
			return
		}
		r.adoptConfig(cand, nil)
	case sameConfig(cand, r.cfg):
		// Crossed messages during convergence; nothing to repair.
	default:
		r.sendReconfig(from, m.Req)
	}
}
