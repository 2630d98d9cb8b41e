package core

import (
	"crdtsmr/internal/crdt"
	"crdtsmr/internal/transport"
)

// largeState is the encoded size, in bytes, from which a payload state
// travels the replica wire by digest or delta instead of in full
// (docs/PROTOCOL.md §3). Below it states travel exactly as in the paper:
// no hashing, no MERGE-NACK round, at most a kilobyte more per frame than
// a digest. At or above it, a converged read ships digests and an update
// a delta. Receivers decode every frame kind whatever the sender chose.
const largeState = 1 << 10

// peerView is the proposer-side record of the last payload state a peer
// acknowledged holding: a MERGE it acknowledged, a leased VOTE it voted
// for, or the state its digest-only ACK vouched for. Any acknowledged state
// is a sound delta baseline forever: the peer's payload only grows, so it
// dominates everything it ever held.
type peerView struct {
	state  crdt.State
	digest crdt.Digest
}

// setView makes s (digest d) the peer's view once the peer acknowledged
// holding it. Views are kept only for configured peers.
func (r *Replica) setView(peer transport.NodeID, d crdt.Digest, s crdt.State) {
	if contains(r.peers, peer) {
		r.xfer.views[peer] = &peerView{state: s, digest: d}
	}
}

// digestRingSize bounds the per-peer digest cache: how many of a peer's
// recent states an acceptor remembers dominating. A small ring tolerates a
// few reordered or duplicated deltas in flight; anything older falls back
// to a MERGE-NACK and a full-state resend.
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
	// messages whose state is not encoded at send time — a PREPARE's
	// digest announcement and a leased VOTE's suppression — so a key's
	// first contact, and every small key, costs no hashing.
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

// large reports whether the payload last seen on the wire was at or above
// largeState.
func (t *transferState) large() bool { return t.size >= largeState }

func (t *transferState) ring(from transport.NodeID) *digestRing {
	r, ok := t.seen[from]
	if !ok {
		r = &digestRing{}
		t.seen[from] = r
	}
	return r
}

// holds reports whether peer from's digest ring records d.
func (t *transferState) holds(from transport.NodeID, d crdt.Digest) bool {
	ring, ok := t.seen[from]
	return ok && ring.contains(d)
}

func (t *transferState) forget(peer transport.NodeID) {
	delete(t.views, peer)
	delete(t.seen, peer)
}
