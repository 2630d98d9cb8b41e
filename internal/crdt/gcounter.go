package crdt

import (
	"fmt"
	"slices"
	"strings"
)

// GCounter is the grow-only counter of the paper's Algorithm 1: the payload
// is one non-negative slot per replica, the partial order is slot-wise ≤,
// and the join is the slot-wise maximum. Each replica only ever increments
// its own slot, so no increments are lost under merge.
//
// Unlike the fixed-length array of Algorithm 1 the slots are keyed by
// replica ID, which supports clusters whose membership is not known when a
// counter is created; the lattice is unchanged. The slots are sorted by
// replica ID with no zero count (a slot holding 0 equals an absent one),
// their wire order: join, ≤ and Delta are merge walks.
type GCounter struct {
	slots []slot
}

type slot struct {
	replica string
	n       uint64 // never 0
}

var (
	_ State       = (*GCounter)(nil)
	_ Unmarshaler = (*GCounter)(nil)
)

// NewGCounter returns the counter's bottom element (all slots zero).
func NewGCounter() *GCounter {
	return &GCounter{}
}

// find returns the index of replica's slot, or where it would be inserted.
func (c *GCounter) find(replica string) (int, bool) {
	return slices.BinarySearchFunc(c.slots, replica, func(s slot, r string) int { return strings.Compare(s.replica, r) })
}

// Inc returns a copy of the counter with replica's slot incremented by n.
// It corresponds to Algorithm 1's update executed n times at that replica.
// Inc by 0 returns the receiver: a slot holding 0 equals an absent one, and
// keeping it would give two equivalent counters two encodings.
func (c *GCounter) Inc(replica string, n uint64) *GCounter {
	if n == 0 {
		return c
	}
	i, ok := c.find(replica)
	slots := append(append(make([]slot, 0, len(c.slots)+1), c.slots[:i]...), slot{replica, n})
	if ok {
		slots[i].n += c.slots[i].n
		i++
	}
	return &GCounter{slots: append(slots, c.slots[i:]...)}
}

// Value implements Algorithm 1's query: the sum over all slots.
func (c *GCounter) Value() uint64 {
	var sum uint64
	for _, s := range c.slots {
		sum += s.n
	}
	return sum
}

// Slot returns the count contributed by a single replica.
func (c *GCounter) Slot(replica string) uint64 {
	if i, ok := c.find(replica); ok {
		return c.slots[i].n
	}
	return 0
}

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

// join is the slot-wise maximum: one walk to find a dominating operand and
// the result's size, and a second to build it only when neither dominates.
func (c *GCounter) join(o *GCounter) *GCounter {
	size, cLE, oLE := 0, true, true
	walk(c.slots, o.slots, func(_ string, a, b uint64) {
		size, cLE, oLE = size+1, cLE && a <= b, oLE && b <= a
	})
	switch {
	case oLE:
		return c
	case cLE:
		return o
	}
	out := make([]slot, 0, size)
	walk(c.slots, o.slots, func(r string, a, b uint64) { out = append(out, slot{r, max(a, b)}) })
	return &GCounter{slots: out}
}

// walk calls f with the two counts of every replica that holds a slot in
// a or b, in replica order; an absent slot counts 0.
func walk(a, b []slot, f func(replica string, x, y uint64)) {
	for i, j := 0, 0; i < len(a) || j < len(b); {
		switch {
		case j == len(b) || i < len(a) && a[i].replica < b[j].replica:
			f(a[i].replica, a[i].n, 0)
			i++
		case i == len(a) || b[j].replica < a[i].replica:
			f(b[j].replica, 0, b[j].n)
			j++
		default:
			f(a[i].replica, a[i].n, b[j].n)
			i, j = i+1, j+1
		}
	}
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
	le := true
	walk(c.slots, o.slots, func(_ string, a, b uint64) { le = le && a <= b })
	return le
}

// TypeName implements State.
func (c *GCounter) TypeName() string { return TypeGCounter }

// AppendBinary implements State: the slot count, then each slot's replica
// ID and count, in replica order.
func (c *GCounter) AppendBinary(b []byte) ([]byte, error) {
	e := encBuf{b: b}
	e.slots(c.slots)
	return e.b, nil
}

func (c *GCounter) binaryLen() int { return slotsLen(c.slots) }

// UnmarshalBinary implements Unmarshaler.
func (c *GCounter) UnmarshalBinary(data []byte) error {
	d := newDecBuf(data)
	slots, err := d.slots()
	if err != nil {
		return err
	}
	if err := d.done(); err != nil {
		return err
	}
	c.slots = slots
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
	return NewGCounter().Inc(replica, c.Slot(replica)+n)
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
	out, dominated := &GCounter{}, true
	walk(c.slots, b.slots, func(r string, v, bv uint64) {
		if dominated = dominated && bv <= v; v > bv {
			out.slots = append(out.slots, slot{r, v})
		}
	})
	if !dominated {
		return nil, errNotDominated(c)
	}
	return out, nil
}

func typeMismatch(want State, got State) error {
	return fmt.Errorf("%w: have %s, got %s", ErrTypeMismatch, want.TypeName(), got.TypeName())
}
