package crdt

import "fmt"

// LWWRegister is a last-writer-wins register: each write is stamped with a
// (timestamp, actor) pair and the lattice order is the lexicographic order
// of stamps, so the highest stamp's value wins deterministically. Timestamps
// are caller-supplied logical clocks; ties break on the actor ID.
type LWWRegister struct {
	val   string
	ts    uint64
	actor string
}

var (
	_ State       = (*LWWRegister)(nil)
	_ Unmarshaler = (*LWWRegister)(nil)
)

// NewLWWRegister returns the register's bottom element (no write).
func NewLWWRegister() *LWWRegister { return &LWWRegister{} }

// Set returns a copy recording the write if (ts, actor) exceeds the current
// stamp, and an unchanged copy otherwise.
func (r *LWWRegister) Set(val string, ts uint64, actor string) *LWWRegister {
	if stampLess(ts, actor, r.ts, r.actor) || (ts == r.ts && actor == r.actor) {
		return &LWWRegister{val: r.val, ts: r.ts, actor: r.actor}
	}
	return &LWWRegister{val: val, ts: ts, actor: actor}
}

// Value returns the current value and its stamp. The zero stamp means the
// register was never written.
func (r *LWWRegister) Value() (val string, ts uint64, actor string) {
	return r.val, r.ts, r.actor
}

// Merge keeps the entry with the larger (ts, actor, val) key. The value is
// the final tiebreak: two writes that (mis)used the same stamp for
// different values would otherwise merge receiver-biased, breaking
// commutativity — and equivalence-by-Compare would disagree with the
// value a query returns. The larger operand is returned as is, the
// receiver on a tie.
func (r *LWWRegister) Merge(other State) (State, error) {
	o, ok := other.(*LWWRegister)
	if !ok {
		return nil, typeMismatch(r, other)
	}
	if stampLess(r.ts, r.actor, o.ts, o.actor) ||
		(r.ts == o.ts && r.actor == o.actor && r.val < o.val) {
		return o, nil
	}
	return r, nil
}

// Compare is ≤ on (ts, actor, val) keys — a total order, so any two
// registers are comparable and the join is simply the maximum.
func (r *LWWRegister) Compare(other State) (bool, error) {
	o, ok := other.(*LWWRegister)
	if !ok {
		return false, typeMismatch(r, other)
	}
	if r.ts == o.ts && r.actor == o.actor {
		return r.val <= o.val, nil
	}
	return stampLess(r.ts, r.actor, o.ts, o.actor), nil
}

// TypeName implements State.
func (r *LWWRegister) TypeName() string { return TypeLWWRegister }

// String renders the register for logs and the CLI.
func (r *LWWRegister) String() string {
	if r.ts == 0 {
		return "LWWRegister(unset)"
	}
	return fmt.Sprintf("LWWRegister(%q @%d by %s)", r.val, r.ts, r.actor)
}

// AppendBinary implements State.
func (r *LWWRegister) AppendBinary(b []byte) ([]byte, error) {
	e := encBuf{b: b}
	e.str(r.val)
	e.uvarint(r.ts)
	e.str(r.actor)
	return e.b, nil
}

func (r *LWWRegister) binaryLen() int {
	return strLen(r.val) + uvarint64Len(r.ts) + strLen(r.actor)
}

// UnmarshalBinary implements Unmarshaler.
func (r *LWWRegister) UnmarshalBinary(data []byte) error {
	d := newDecBuf(data)
	val, err := d.str()
	if err != nil {
		return err
	}
	ts, err := d.uvarint()
	if err != nil {
		return err
	}
	actor, err := d.str()
	if err != nil {
		return err
	}
	if err := d.done(); err != nil {
		return err
	}
	r.val, r.ts, r.actor = val, ts, actor
	return nil
}

func stampLess(ts1 uint64, a1 string, ts2 uint64, a2 string) bool {
	if ts1 != ts2 {
		return ts1 < ts2
	}
	return a1 < a2
}
