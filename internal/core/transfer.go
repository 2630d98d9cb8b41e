package core

import (
	"crdtsmr/internal/crdt"
	"crdtsmr/internal/transport"
	"crdtsmr/internal/wire"
)

// largeState is the encoded size, in bytes, from which a payload state
// travels the replica wire by digest or delta instead of in full
// (docs/PROTOCOL.md §3). Below it states travel exactly as in the paper:
// no hashing, no MERGE-NACK round, at most a kilobyte more per frame than
// a digest. At or above it, a converged read ships digests, and an update
// or leased VOTE a delta. Receivers decode every frame kind whatever the
// sender chose.
const largeState = 1 << 10

// digested is a state a proposer ships or announces, with its digest when
// the state is at or above largeState (ok).
type digested struct {
	state  crdt.State
	digest crdt.Digest
	ok     bool
}

// peerView is the proposer-side record of the last payload state a peer
// acknowledged holding: a MERGE it acknowledged, a leased VOTE it voted
// for, or the state its digest-only ACK vouched for. Any acknowledged state
// is a sound delta baseline forever: the peer's payload only grows, so it
// dominates everything it ever held.
type peerView struct {
	state  crdt.State
	digest crdt.Digest
}

// digestRingSize bounds the per-peer digest cache: how many of a peer's
// recent states an acceptor remembers dominating. A small ring tolerates a
// few reordered or duplicated deltas in flight; anything older falls back
// to a MERGE-NACK (or a denied leased VOTE) and a full-state resend.
const digestRingSize = 8

// digestRing is a fixed-size record of recently merged state digests.
type digestRing struct {
	buf [digestRingSize]crdt.Digest
	n   int // filled slots
	pos int // next overwrite position
}

func (r *digestRing) add(d crdt.Digest) {
	if r.contains(d) {
		return
	}
	r.buf[r.pos] = d
	r.pos = (r.pos + 1) % digestRingSize
	if r.n < digestRingSize {
		r.n++
	}
}

func (r *digestRing) contains(d crdt.Digest) bool {
	for i := 0; i < r.n; i++ {
		if r.buf[i] == d {
			return true
		}
	}
	return false
}

// transferState bundles the digest/delta bookkeeping of one replica. Its
// memory is bounded by the membership: one peerView and one digestRing
// per peer, entries created only for configured peers and dropped by
// ForgetPeer when the runtime declares a peer down.
type transferState struct {
	// size is the encoded length of the last full payload state this
	// replica shipped in a MERGE or received in any frame. It decides the
	// states not encoded before their form is chosen — a PREPARE's
	// announcement and a leased VOTE's proposal — so a key's first
	// contact, and every small key, costs no hashing.
	size    int
	digests crdt.MemoDigest                  // memoized digest of the local payload
	views   map[transport.NodeID]*peerView   // proposer side: per-peer last-acked state
	seen    map[transport.NodeID]*digestRing // acceptor side: per-peer dominated digests
}

func newTransferState() transferState {
	return transferState{
		views: make(map[transport.NodeID]*peerView),
		seen:  make(map[transport.NodeID]*digestRing),
	}
}

func (t *transferState) forget(peer transport.NodeID) {
	delete(t.views, peer)
	delete(t.seen, peer)
}

// observe records the size of a full state received in any frame.
func (r *Replica) observe(m *message) {
	if m.Kind == wire.StateFull || m.Kind == wire.StateFullDigest {
		r.xfer.size = len(m.StateRaw)
	}
}

// --- proposer side ---

// marshalShipped encodes s, a state about to be shipped in full, once:
// its size decides its form, a large state is digested over these very
// bytes, and every peer that gets it in full shares the encoding.
func (r *Replica) marshalShipped(s crdt.State) (digested, []byte) {
	raw, err := crdt.Marshal(s)
	if err != nil {
		return digested{state: s}, nil
	}
	r.xfer.size = len(raw)
	if len(raw) < largeState {
		return digested{state: s}, raw
	}
	d := crdt.DigestOfMarshaled(raw)
	r.xfer.digests.Note(s, d)
	return digested{state: s, digest: d, ok: true}, raw
}

// digestIfLarge names s, a state whose encoding is not at hand (a
// PREPARE's announcement, a leased VOTE's proposal), by digest when the
// last full state seen on the wire was large.
func (r *Replica) digestIfLarge(s crdt.State) digested {
	if r.xfer.size < largeState {
		return digested{state: s}
	}
	d, err := r.xfer.digests.Of(s)
	return digested{state: s, digest: d, ok: err == nil}
}

// withDigest adds d's digest, when it has one, to m's state frame: a
// full+digest frame when m carries a state (a large MERGE or leased VOTE,
// a seeded PREPARE), a digest frame when it does not (an unseeded
// PREPARE announcing the proposer's payload).
func withDigest(m *message, d digested) *message {
	if d.ok {
		m.Digest, m.Kind = d.digest, wire.StateDigest
		if m.State != nil {
			m.Kind = wire.StateFullDigest
		}
	}
	return m
}

// encode picks the form of m, a MERGE or leased VOTE in its full form,
// for one peer: a digest alone when the peer's view is exactly m's state,
// a delta against the view (join decomposition, crdt.DeltaState) when
// the peer has one, or m itself. Full is always safe; the other forms
// are verified by the receiver (accept), which answers MERGE-NACK or
// denies the vote when it cannot resolve them.
func (r *Replica) encode(peer transport.NodeID, m *message) *message {
	view, ok := r.xfer.views[peer]
	if !ok || m.Kind != wire.StateFullDigest {
		return m
	}
	out := &message{Type: m.Type, Req: m.Req, Attempt: m.Attempt, Round: m.Round, Lease: m.Lease, Digest: m.Digest}
	if view.digest == m.Digest {
		out.Kind = wire.StateDigest
		if m.Type == msgMerge {
			r.counters.DigestMerges++
		}
		return out
	}
	if ds, ok := m.State.(crdt.DeltaState); ok {
		if delta, err := ds.Delta(view.state); err == nil {
			out.State, out.Kind, out.Baseline = delta, wire.StateDelta, view.digest
			if m.Type == msgMerge {
				r.counters.DeltaMerges++
			}
			return out
		}
	}
	return m
}

// learn makes s the peer's view once the peer acknowledged holding it (a
// MERGED, a leased VOTED, a digest-only ACK). It is the one writer of
// views, which are kept only for large states and configured peers.
func (r *Replica) learn(peer transport.NodeID, s digested) {
	if s.ok && contains(r.peers, peer) {
		r.xfer.views[peer] = &peerView{state: s.state, digest: s.digest}
	}
}

// unlearn drops the peer's view after it refused a digest or delta MERGE:
// its next MERGE goes in full and re-establishes the baseline.
func (r *Replica) unlearn(peer transport.NodeID) { delete(r.xfer.views, peer) }

// learnFromAck learns from a digest-only ACK, late ones included: the
// acceptor holds the state it names, which, if digested here last,
// becomes the peer's view.
func (r *Replica) learnFromAck(from transport.NodeID, m *message) {
	if m.Kind != wire.StateDigest {
		return
	}
	if s, known := r.xfer.digests.Lookup(m.Digest); known {
		r.learn(from, digested{state: s, digest: m.Digest, ok: true})
	}
}

// resolve returns the state a reply names: its payload, or for a
// digest-only ACK or NACK the announced state (a PREPARE's payload, a
// leased proposal) with that digest; ok is false if none has it.
func resolve(m *message, announced ...digested) (crdt.State, bool) {
	if m.Kind != wire.StateDigest {
		return m.State, true
	}
	for _, a := range announced {
		if a.ok && a.digest == m.Digest {
			return a.state, true
		}
	}
	return nil, false
}

// --- acceptor side ---

// acceptance is what accept made of an incoming state frame.
type acceptance uint8

const (
	acceptBad     acceptance = iota // malformed: no usable state
	acceptUnknown                   // names a state the payload is not known to dominate
	acceptHeld                      // the payload already dominates the sender's state; nothing joined
	acceptJoined                    // the frame's state was joined into the payload
)

// remember records that the payload dominates peer from's state with
// digest d. Rings are kept only for configured peers.
func (r *Replica) remember(from transport.NodeID, d crdt.Digest) {
	if !contains(r.peers, from) {
		return
	}
	ring, ok := r.xfer.seen[from]
	if !ok {
		ring = &digestRing{}
		r.xfer.seen[from] = ring
	}
	ring.add(d)
}

// accept resolves a MERGE or VOTE frame of any kind against the payload
// and joins what it carries. A digest, or a delta's baseline, is known
// when the per-peer ring holds it (payloads only grow, so once held,
// dominated forever) or when the payload IS that state. Only a MERGE
// feeds the ring: a voted proposal is the payload itself, which the
// own-digest check knows, and recording it would evict update baselines.
func (r *Replica) accept(from transport.NodeID, m *message) acceptance {
	note := func(d crdt.Digest) {
		if m.Type == msgMerge {
			r.remember(from, d)
		}
	}
	known := func(d crdt.Digest) bool {
		if d.IsZero() {
			return false
		}
		if ring, ok := r.xfer.seen[from]; ok && ring.contains(d) {
			return true
		}
		if own, err := r.xfer.digests.Of(r.acc.state); err == nil && own == d {
			note(d)
			return true
		}
		return false
	}
	switch m.Kind {
	case wire.StateFull, wire.StateFullDigest:
		if m.State == nil || r.acc.join(m.State) != nil {
			return acceptBad
		}
		if m.Kind == wire.StateFullDigest {
			// A large state arrives with its digest: a baseline for the
			// sender's future deltas and, when the payload now IS that
			// state, the payload's own digest — nothing to hash here.
			note(m.Digest)
			if r.acc.state == m.State {
				r.xfer.digests.Note(m.State, m.Digest)
			}
		}
		return acceptJoined
	case wire.StateDigest:
		// Payload suppressed: the sender believes this acceptor already
		// holds a state dominating the one with this digest.
		if !known(m.Digest) {
			return acceptUnknown
		}
		return acceptHeld
	case wire.StateDelta:
		if m.State == nil {
			return acceptBad
		}
		if ring, ok := r.xfer.seen[from]; ok && ring.contains(m.Digest) {
			// The resulting state is already covered here (duplicate or
			// reordered delta): nothing to merge. The ring alone decides,
			// so this check never hashes the payload.
			return acceptHeld
		}
		if !known(m.Baseline) {
			// Unknown baseline: merging the delta alone could lose the
			// part of the sender's state the baseline carried.
			return acceptUnknown
		}
		base, memo := r.xfer.digests.Lookup(m.Baseline)
		exact := memo && base == r.acc.state
		if r.acc.join(m.State) != nil {
			return acceptBad
		}
		if exact {
			// The payload was exactly the baseline, so baseline ⊔ delta
			// makes it exactly the sender's state: its digest is known
			// without hashing, and the next delta onto it, PREPARE
			// announcing it or digest VOTE naming it costs no hashing.
			r.xfer.digests.Note(r.acc.state, m.Digest)
		}
		note(m.Digest)
		return acceptJoined
	}
	return acceptBad
}

// isSenderState reports whether the payload, after accept, is exactly the
// state m names — not merely dominates it. A frame that shipped no full
// state (digest, delta) is checked by its digest; a full one by Compare,
// as payload ⊔ s ⊑ s holds iff the payload was ⊑ s before the join.
func (r *Replica) isSenderState(m *message) bool {
	if m.Kind == wire.StateDigest || m.Kind == wire.StateDelta {
		own, err := r.xfer.digests.Of(r.acc.state)
		return err == nil && own == m.Digest
	}
	le, err := r.acc.state.Compare(m.State)
	return err == nil && le
}

// echoDigest answers a leased VOTE that shipped no full state, denied
// for its round alone, with the digest it named instead of the payload:
// the payload here IS the proposal, so the proposer resolves it locally.
func echoDigest(out, m *message) {
	if m.Kind == wire.StateDigest || m.Kind == wire.StateDelta {
		out.State, out.Kind, out.Digest = nil, wire.StateDigest, m.Digest
	}
}

// answerPrepare answers a PREPARE that announced a digest equal to the
// local post-prepare payload's with the digest alone — the converged fast
// path that makes a quorum read cost O(digest) bytes — and records it, as
// the proposer will build deltas on it.
func (r *Replica) answerPrepare(from transport.NodeID, m, out *message) {
	if !m.Kind.HasDigest() || out.State == nil {
		return
	}
	if own, err := r.xfer.digests.Of(out.State); err == nil && own == m.Digest {
		out.State, out.Kind, out.Digest = nil, wire.StateDigest, own
		r.counters.DigestReplies++
		r.remember(from, own)
	}
}
