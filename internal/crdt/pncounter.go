package crdt

import "fmt"

// PNCounter is a counter supporting increments and decrements, built as the
// product lattice of two G-Counters: one accumulating increments (p) and
// one accumulating decrements (n). Its value is Σp − Σn.
type PNCounter struct {
	p *GCounter
	n *GCounter
}

var (
	_ State       = (*PNCounter)(nil)
	_ Unmarshaler = (*PNCounter)(nil)
)

// NewPNCounter returns the counter's bottom element (value 0).
func NewPNCounter() *PNCounter {
	return &PNCounter{p: NewGCounter(), n: NewGCounter()}
}

// Inc returns a copy with replica's increment slot raised by n.
func (c *PNCounter) Inc(replica string, n uint64) *PNCounter {
	return &PNCounter{p: c.p.Inc(replica, n), n: c.n}
}

// Dec returns a copy with replica's decrement slot raised by n.
func (c *PNCounter) Dec(replica string, n uint64) *PNCounter {
	return &PNCounter{p: c.p, n: c.n.Inc(replica, n)}
}

// Value returns the counter value, Σincrements − Σdecrements.
func (c *PNCounter) Value() int64 {
	return int64(c.p.Value()) - int64(c.n.Value())
}

// Merge joins both component G-Counters slot-wise. When one operand
// already dominates the other it is returned as is, the receiver first;
// otherwise the result shares any component one side dominates.
func (c *PNCounter) Merge(other State) (State, error) {
	o, ok := other.(*PNCounter)
	if !ok {
		return nil, typeMismatch(c, other)
	}
	switch {
	case o.le(c):
		return c, nil
	case c.le(o):
		return o, nil
	}
	return &PNCounter{p: c.p.join(o.p), n: c.n.join(o.n)}, nil
}

// Compare is the product order: both components must be ≤.
func (c *PNCounter) Compare(other State) (bool, error) {
	o, ok := other.(*PNCounter)
	if !ok {
		return false, typeMismatch(c, other)
	}
	return c.le(o), nil
}

func (c *PNCounter) le(o *PNCounter) bool { return c.p.le(o.p) && c.n.le(o.n) }

// TypeName implements State.
func (c *PNCounter) TypeName() string { return TypePNCounter }

// MarshalBinary implements State.
func (c *PNCounter) MarshalBinary() ([]byte, error) {
	e := newEncBuf(16 * (len(c.p.slots) + len(c.n.slots) + 1))
	e.strU64Map(c.p.slots)
	e.strU64Map(c.n.slots)
	return e.bytes(), nil
}

// UnmarshalBinary implements Unmarshaler.
func (c *PNCounter) UnmarshalBinary(data []byte) error {
	d := newDecBuf(data)
	p, err := d.strU64Map()
	if err != nil {
		return err
	}
	n, err := d.strU64Map()
	if err != nil {
		return err
	}
	if err := d.done(); err != nil {
		return err
	}
	c.p = &GCounter{slots: p}
	c.n = &GCounter{slots: n}
	return nil
}

// String renders the counter for logs and test failures.
func (c *PNCounter) String() string {
	return fmt.Sprintf("PNCounter(%d)", c.Value())
}

var _ DeltaState = (*PNCounter)(nil)

// Delta implements DeltaState component-wise over the product lattice.
func (c *PNCounter) Delta(base State) (State, error) {
	b, ok := base.(*PNCounter)
	if !ok {
		return nil, typeMismatch(c, base)
	}
	p, err := c.p.Delta(b.p)
	if err != nil {
		return nil, err
	}
	n, err := c.n.Delta(b.n)
	if err != nil {
		return nil, err
	}
	return &PNCounter{p: p.(*GCounter), n: n.(*GCounter)}, nil
}
