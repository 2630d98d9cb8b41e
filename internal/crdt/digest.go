package crdt

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
)

// State digests give every payload state a short canonical name: the
// SHA-256 of its deterministic Marshal encoding. Because equivalent states
// marshal to identical bytes (the codec's determinism contract, enforced
// by the property tests), digest equality is state equality, and a replica
// that recognizes a peer's digest can skip receiving the payload entirely.
// The replication protocol uses digests to suppress redundant state
// transfer on the replica wire (docs/PROTOCOL.md §3).

// DigestSize is the byte length of a Digest (SHA-256).
const DigestSize = 32

// Digest is the canonical fingerprint of a payload state: the SHA-256 of
// Marshal(s). Two states have equal digests iff they are equivalent (up to
// hash collision, which SHA-256 makes negligible).
type Digest [DigestSize]byte

// IsZero reports whether d is the zero digest (no digest computed). The
// zero value never collides with a real digest in practice: every Marshal
// output is non-empty, and SHA-256 of any input is uniformly distributed.
func (d Digest) IsZero() bool { return d == Digest{} }

// String renders an abbreviated digest for logs and test failures.
func (d Digest) String() string { return hex.EncodeToString(d[:6]) }

// DigestOf computes the digest of a state: SHA-256 over Marshal(s).
func DigestOf(s State) (Digest, error) {
	raw, err := Marshal(s)
	if err != nil {
		return Digest{}, err
	}
	return Digest(sha256.Sum256(raw)), nil
}

// DigestOfMarshaled computes the digest of an already-marshaled state.
// Receivers of full-state messages use it to fingerprint the sender's
// state from the wire bytes without re-encoding the decoded payload.
func DigestOfMarshaled(raw []byte) Digest {
	return Digest(sha256.Sum256(raw))
}

// MemoDigest memoizes the digest of the most recently digested state,
// keyed by state identity. States are immutable and every mutation
// allocates a new value, so pointer identity is a sound cache key: the
// same State value always has the same digest. The memo makes repeated
// digests of an unchanged acceptor payload free — the common case on a
// converged read-heavy keyspace.
//
// The identity comparison requires payload types to be comparable, which
// every pointer-shaped State is. All registry types qualify (their
// factories return pointers, as Unmarshaler forces).
type MemoDigest struct {
	last   State
	digest Digest
}

// Of returns the digest of s, recomputing only when s is not the state
// digested last time.
func (m *MemoDigest) Of(s State) (Digest, error) {
	if s != nil && s == m.last {
		return m.digest, nil
	}
	d, err := DigestOf(s)
	if err != nil {
		return Digest{}, err
	}
	m.last, m.digest = s, d
	return d, nil
}

// Lookup returns the memoized state if its digest is d.
func (m *MemoDigest) Lookup(d Digest) (State, bool) {
	return m.last, m.last != nil && m.digest == d
}

// Note records d as the digest of s, for a caller that already hashed
// s's encoding (DigestOfMarshaled) or received the digest alongside it.
func (m *MemoDigest) Note(s State, d Digest) {
	m.last, m.digest = s, d
}

// DeltaState is implemented by payload types that support join
// decomposition (delta-state CRDTs, Almeida et al.): extracting a small
// state that carries exactly what a given baseline is missing. Types
// without delta support fall back to full-state transfer; the protocol
// treats the interface as an optimization, never a requirement.
type DeltaState interface {
	State

	// Delta returns a state d with base ⊔ d ≡ receiver. base must be of
	// the receiver's payload type and satisfy base ⊑ receiver; Delta fails
	// otherwise. Because d is itself a state of the same lattice, merging
	// it into ANY state that dominates base yields a state dominating the
	// receiver — the property that makes shipping d instead of the full
	// receiver safe on the replica wire.
	Delta(base State) (State, error)
}

// errNotDominated is returned by Delta implementations when the baseline
// does not precede the receiver in the lattice order.
func errNotDominated(t State) error {
	return fmt.Errorf("crdt: %s delta baseline not dominated by receiver", t.TypeName())
}
