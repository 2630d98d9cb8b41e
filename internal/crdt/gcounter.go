package crdt

import "fmt"

// GCounter is the grow-only counter of the paper's Algorithm 1: the payload
// is one non-negative slot per replica, the partial order is slot-wise ≤,
// and the join is the slot-wise maximum. Each replica only ever increments
// its own slot, so no increments are lost under merge.
//
// Unlike the fixed-length array of Algorithm 1 the slots are keyed by
// replica ID, which supports clusters whose membership is not known when a
// counter is created; the lattice is unchanged.
type GCounter struct {
	slots map[string]uint64
}

var (
	_ State       = (*GCounter)(nil)
	_ Unmarshaler = (*GCounter)(nil)
)

// NewGCounter returns the counter's bottom element (all slots zero).
func NewGCounter() *GCounter {
	return &GCounter{slots: map[string]uint64{}}
}

// Inc returns a copy of the counter with replica's slot incremented by n.
// It corresponds to Algorithm 1's update executed n times at that replica.
// Inc by 0 returns the receiver: a slot holding 0 equals an absent one, and
// keeping it would give two equivalent counters two encodings.
func (c *GCounter) Inc(replica string, n uint64) *GCounter {
	if n == 0 {
		return c
	}
	out := &GCounter{slots: cloneStrU64(c.slots)}
	out.slots[replica] += n
	return out
}

// Value implements Algorithm 1's query: the sum over all slots.
func (c *GCounter) Value() uint64 {
	var sum uint64
	for _, v := range c.slots {
		sum += v
	}
	return sum
}

// Slot returns the count contributed by a single replica.
func (c *GCounter) Slot(replica string) uint64 { return c.slots[replica] }

// Merge implements Algorithm 1's merge: the slot-wise maximum. When one
// operand already dominates the other it is returned as is, the receiver
// first, so a merge that learns nothing allocates nothing and callers can
// tell it by pointer.
func (c *GCounter) Merge(other State) (State, error) {
	o, ok := other.(*GCounter)
	if !ok {
		return nil, typeMismatch(c, other)
	}
	return c.join(o), nil
}

func (c *GCounter) join(o *GCounter) *GCounter {
	switch {
	case o.le(c):
		return c
	case c.le(o):
		return o
	}
	out := &GCounter{slots: cloneStrU64(c.slots)}
	for k, v := range o.slots {
		if v > out.slots[k] {
			out.slots[k] = v
		}
	}
	return out
}

// Compare implements Algorithm 1's compare: slot-wise ≤.
func (c *GCounter) Compare(other State) (bool, error) {
	o, ok := other.(*GCounter)
	if !ok {
		return false, typeMismatch(c, other)
	}
	return c.le(o), nil
}

// le reports c ⊑ o.
func (c *GCounter) le(o *GCounter) bool {
	for k, v := range c.slots {
		if v > o.slots[k] {
			return false
		}
	}
	return true
}

// TypeName implements State.
func (c *GCounter) TypeName() string { return TypeGCounter }

// AppendBinary implements State.
func (c *GCounter) AppendBinary(b []byte) ([]byte, error) {
	e := encBuf{b: b}
	e.strU64Map(c.slots)
	return e.b, nil
}

func (c *GCounter) binaryLen() int { return strU64MapLen(c.slots) }

// UnmarshalBinary implements Unmarshaler.
func (c *GCounter) UnmarshalBinary(data []byte) error {
	d := newDecBuf(data)
	m, err := d.strU64Map()
	if err != nil {
		return err
	}
	if err := d.done(); err != nil {
		return err
	}
	c.slots = m
	return nil
}

// String renders the counter for logs and test failures.
func (c *GCounter) String() string {
	return fmt.Sprintf("GCounter(%d)", c.Value())
}

// IncDelta returns the delta-mutation of Inc (Almeida et al., NETYS 2015):
// a state containing only the incremented slot. Merging the delta into the
// full state yields the same result as Inc, but the delta's encoding is
// O(1) instead of O(#replicas); see the delta-merge ablation benchmark.
func (c *GCounter) IncDelta(replica string, n uint64) *GCounter {
	return NewGCounter().Inc(replica, c.slots[replica]+n)
}

var _ DeltaState = (*GCounter)(nil)

// Delta implements DeltaState: the join decomposition of the counter
// against base is the set of slots whose value base is missing. The delta
// carries the receiver's full slot value (join is max), so merging it into
// any state dominating base reconstructs the receiver's contribution.
func (c *GCounter) Delta(base State) (State, error) {
	b, ok := base.(*GCounter)
	if !ok {
		return nil, typeMismatch(c, base)
	}
	out := &GCounter{slots: map[string]uint64{}}
	for k, v := range c.slots {
		bv := b.slots[k]
		if bv > v {
			return nil, errNotDominated(c)
		}
		if v > bv {
			out.slots[k] = v
		}
	}
	for k, bv := range b.slots {
		if bv > c.slots[k] {
			return nil, errNotDominated(c)
		}
	}
	return out, nil
}

func typeMismatch(want State, got State) error {
	return fmt.Errorf("%w: have %s, got %s", ErrTypeMismatch, want.TypeName(), got.TypeName())
}
