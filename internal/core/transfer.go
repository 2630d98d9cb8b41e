package core

import (
	"fmt"

	"crdtsmr/internal/crdt"
	"crdtsmr/internal/transport"
)

// StateTransfer selects how MERGE/ACK/NACK messages move payload state on
// the replica wire (docs/PROTOCOL.md §3). All three modes implement the
// same protocol and interoperate — receivers understand every frame kind
// regardless of their own mode, and the mode only governs what a node
// initiates (replies answer in whatever form the inbound frame asked
// for: even a full-mode acceptor sends a digest-only ACK to a PREPARE
// that announced a matching digest) — but a uniform cluster-wide
// setting is what makes the savings land.
type StateTransfer uint8

const (
	// TransferFull always ships complete payloads — the paper's wire
	// format, and the default.
	TransferFull StateTransfer = iota
	// TransferDigest announces the proposer's state digest in PREPARE so
	// converged acceptors answer digest-only ACKs/NACKs, and suppresses
	// MERGE payloads a peer has already acknowledged.
	TransferDigest
	// TransferDelta additionally ships join-decomposition deltas in MERGE
	// for payload types implementing crdt.DeltaState, against the last
	// state each peer acknowledged.
	TransferDelta
)

func (t StateTransfer) String() string {
	switch t {
	case TransferFull:
		return "full"
	case TransferDigest:
		return "digest"
	case TransferDelta:
		return "delta"
	default:
		return fmt.Sprintf("StateTransfer(%d)", uint8(t))
	}
}

// ParseStateTransfer parses the -state-transfer flag values.
func ParseStateTransfer(s string) (StateTransfer, error) {
	switch s {
	case "full":
		return TransferFull, nil
	case "digest":
		return TransferDigest, nil
	case "delta":
		return TransferDelta, nil
	default:
		return TransferFull, fmt.Errorf("core: unknown state-transfer mode %q (want full, digest, or delta)", s)
	}
}

// peerView is the proposer-side record of the last payload state a peer
// acknowledged merging from this replica. Any acknowledged state is a
// sound delta baseline forever: the peer's payload only grows, so it
// dominates everything it ever merged. The full state is retained only in
// delta mode (it is the delta subtrahend); digest mode keeps the digest
// alone.
type peerView struct {
	state  crdt.State // nil under TransferDigest
	digest crdt.Digest
}

// setView makes s (digest d) the peer's view once the peer acknowledged
// merging it — a MERGED for an update, or a VOTED for a leased proposal.
// Views are kept only for configured peers.
func (r *Replica) setView(peer transport.NodeID, d crdt.Digest, s crdt.State) {
	if !contains(r.peers, peer) {
		return
	}
	view := &peerView{digest: d}
	if r.opts.Transfer == TransferDelta {
		view.state = s
	}
	r.xfer.views[peer] = view
}

// digestRingSize bounds the per-peer digest cache: how many of a peer's
// recent MERGE states an acceptor remembers having merged. A small ring
// tolerates a few reordered or duplicated deltas in flight; anything
// older falls back to a MERGE-NACK and a full-state resend.
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
	digests crdt.MemoDigest                  // memoized digest of the local payload
	views   map[transport.NodeID]*peerView   // proposer side: per-peer last-acked state
	seen    map[transport.NodeID]*digestRing // acceptor side: per-peer merged digests
}

func newTransferState() transferState {
	return transferState{
		views: make(map[transport.NodeID]*peerView),
		seen:  make(map[transport.NodeID]*digestRing),
	}
}

func (t *transferState) ring(from transport.NodeID) *digestRing {
	r, ok := t.seen[from]
	if !ok {
		r = &digestRing{}
		t.seen[from] = r
	}
	return r
}

func (t *transferState) forget(peer transport.NodeID) {
	delete(t.views, peer)
	delete(t.seen, peer)
}
