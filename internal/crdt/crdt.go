package crdt

import (
	"errors"
	"fmt"
)

// ErrTypeMismatch is returned when two states of different concrete payload
// types are merged or compared. In a replicated deployment this indicates a
// corrupt or misrouted message and callers should drop the offending message.
var ErrTypeMismatch = errors.New("crdt: payload type mismatch")

// State is an element of a join semilattice: the payload of a state-based
// CRDT (Definition 3 in the paper).
//
// Implementations must guarantee the semilattice laws:
//
//	idempotence:    a ⊔ a ≡ a
//	commutativity:  a ⊔ b ≡ b ⊔ a
//	associativity:  (a ⊔ b) ⊔ c ≡ a ⊔ (b ⊔ c)
//	consistency:    a ⊑ b  ⇔  a ⊔ b ≡ b
//
// All methods must treat the receiver and arguments as immutable.
type State interface {
	// Merge returns the least upper bound of the receiver and other.
	// It fails with ErrTypeMismatch if other has a different payload type.
	// When one operand dominates, Merge returns that operand itself, the
	// receiver first: a replica tells a merge that learned nothing by
	// pointer, and a fresh equivalent value costs it a durable write.
	Merge(other State) (State, error)

	// Compare reports whether the receiver precedes or equals other in the
	// lattice partial order (receiver ⊑ other). It fails with
	// ErrTypeMismatch if other has a different payload type.
	Compare(other State) (bool, error)

	// TypeName returns the name under which the payload type is registered
	// in the codec registry (see Names). It must be constant per type.
	TypeName() string

	// AppendBinary appends the payload's encoding in the type's
	// deterministic wire format to b (encoding.BinaryAppender). Two
	// equivalent states encode to identical bytes.
	AppendBinary(b []byte) ([]byte, error)

	// binaryLen is the exact length of that encoding, so Marshal builds a
	// frame in one exactly sized buffer. Being unexported, it keeps State
	// implementable only by this package's fixed table of types.
	binaryLen() int
}

// Update is a monotonically non-decreasing update function u with s ⊑ u(s)
// for every state s (Definition 3). Update functions are applied locally at
// the replica that received the client command; they are never shipped over
// the network.
type Update func(State) (State, error)

// Query is a read-only function applied to a learned state. It must not
// retain or mutate the state.
type Query func(State) (any, error)

// Equivalent reports s1 ≡ s2, i.e. s1 ⊑ s2 ∧ s2 ⊑ s1: all queries return the
// same result for both states.
func Equivalent(s1, s2 State) (bool, error) {
	le, err := s1.Compare(s2)
	if err != nil {
		return false, err
	}
	if !le {
		return false, nil
	}
	ge, err := s2.Compare(s1)
	if err != nil {
		return false, err
	}
	return ge, nil
}

// Comparable reports whether s1 and s2 can be ordered: s1 ⊑ s2 ∨ s2 ⊑ s1.
// The Consistency condition of the paper (§3.1) requires any two learned
// states to be comparable.
func Comparable(s1, s2 State) (bool, error) {
	le, err := s1.Compare(s2)
	if err != nil {
		return false, err
	}
	if le {
		return true, nil
	}
	return s2.Compare(s1)
}

// MustMerge merges two states and panics on type mismatch. It is intended
// for tests and examples where both operands are statically known to have
// the same payload type.
func MustMerge(s1, s2 State) State {
	m, err := s1.Merge(s2)
	if err != nil {
		panic(fmt.Sprintf("crdt: MustMerge: %v", err))
	}
	return m
}

// MergeAll folds Merge over a non-empty list of states, returning ⊔ states.
func MergeAll(states ...State) (State, error) {
	if len(states) == 0 {
		return nil, errors.New("crdt: MergeAll of empty list")
	}
	acc := states[0]
	for _, s := range states[1:] {
		var err error
		acc, err = acc.Merge(s)
		if err != nil {
			return nil, err
		}
	}
	return acc, nil
}
