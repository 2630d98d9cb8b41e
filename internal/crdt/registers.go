package crdt

import (
	"fmt"
	"sort"
	"strings"
)

// MaxRegister holds the maximum of all written int64 values: the simplest
// non-trivial join semilattice (the total order on int64). Its bottom
// element is the minimum int64.
type MaxRegister struct {
	v       int64
	written bool
}

var (
	_ State       = (*MaxRegister)(nil)
	_ Unmarshaler = (*MaxRegister)(nil)
)

// NewMaxRegister returns the register's bottom element.
func NewMaxRegister() *MaxRegister { return &MaxRegister{} }

// Set returns a copy holding max(current, v).
func (r *MaxRegister) Set(v int64) *MaxRegister {
	if r.written && r.v >= v {
		return &MaxRegister{v: r.v, written: true}
	}
	return &MaxRegister{v: v, written: true}
}

// Value returns the largest written value and whether any write happened.
func (r *MaxRegister) Value() (int64, bool) { return r.v, r.written }

// Merge keeps the maximum.
func (r *MaxRegister) Merge(other State) (State, error) {
	o, ok := other.(*MaxRegister)
	if !ok {
		return nil, typeMismatch(r, other)
	}
	switch {
	case !r.written:
		return &MaxRegister{v: o.v, written: o.written}, nil
	case !o.written || r.v >= o.v:
		return &MaxRegister{v: r.v, written: true}, nil
	default:
		return &MaxRegister{v: o.v, written: true}, nil
	}
}

// Compare is ≤ on values, with the unwritten bottom below everything.
func (r *MaxRegister) Compare(other State) (bool, error) {
	o, ok := other.(*MaxRegister)
	if !ok {
		return false, typeMismatch(r, other)
	}
	if !r.written {
		return true, nil
	}
	return o.written && r.v <= o.v, nil
}

// TypeName implements State.
func (r *MaxRegister) TypeName() string { return TypeMaxRegister }

// MarshalBinary implements State.
func (r *MaxRegister) MarshalBinary() ([]byte, error) {
	e := newEncBuf(10)
	e.bool(r.written)
	e.varint(r.v)
	return e.bytes(), nil
}

// UnmarshalBinary implements Unmarshaler.
func (r *MaxRegister) UnmarshalBinary(data []byte) error {
	d := newDecBuf(data)
	w, err := d.bool()
	if err != nil {
		return err
	}
	v, err := d.varint()
	if err != nil {
		return err
	}
	if err := d.done(); err != nil {
		return err
	}
	r.v, r.written = v, w
	return nil
}

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
// value a query returns.
func (r *LWWRegister) Merge(other State) (State, error) {
	o, ok := other.(*LWWRegister)
	if !ok {
		return nil, typeMismatch(r, other)
	}
	if stampLess(r.ts, r.actor, o.ts, o.actor) ||
		(r.ts == o.ts && r.actor == o.actor && r.val < o.val) {
		return &LWWRegister{val: o.val, ts: o.ts, actor: o.actor}, nil
	}
	return &LWWRegister{val: r.val, ts: r.ts, actor: r.actor}, nil
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

// MarshalBinary implements State.
func (r *LWWRegister) MarshalBinary() ([]byte, error) {
	e := newEncBuf(len(r.val) + len(r.actor) + 12)
	e.str(r.val)
	e.uvarint(r.ts)
	e.str(r.actor)
	return e.bytes(), nil
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

// MVRegister is a multi-value register: concurrent writes are all retained
// and surfaced to the reader for application-level reconciliation. Each
// write carries the writer's vector clock; the state is the antichain of
// causally-maximal (value, clock) pairs. The lattice order is dominance:
// a ⊑ b iff every entry of a is dominated by (or equal to) some entry of b.
type MVRegister struct {
	entries []mvEntry
}

type mvEntry struct {
	val string
	vc  *VClock
}

var (
	_ State       = (*MVRegister)(nil)
	_ Unmarshaler = (*MVRegister)(nil)
)

// NewMVRegister returns the register's bottom element (no writes).
func NewMVRegister() *MVRegister { return &MVRegister{} }

// Set returns a copy where the write (val) supersedes all current entries:
// its clock is the join of all current clocks ticked at actor.
func (r *MVRegister) Set(val string, actor string) *MVRegister {
	vc := NewVClock()
	for _, e := range r.entries {
		vc = mustVClock(vc.Merge(e.vc))
	}
	vc = vc.Tick(actor)
	return &MVRegister{entries: []mvEntry{{val: val, vc: vc}}}
}

// Values returns the concurrent values, sorted for determinism.
func (r *MVRegister) Values() []string {
	out := make([]string, 0, len(r.entries))
	for _, e := range r.entries {
		out = append(out, e.val)
	}
	sort.Strings(out)
	return out
}

// Merge unions the entries and discards dominated ones.
func (r *MVRegister) Merge(other State) (State, error) {
	o, ok := other.(*MVRegister)
	if !ok {
		return nil, typeMismatch(r, other)
	}
	all := make([]mvEntry, 0, len(r.entries)+len(o.entries))
	all = append(all, r.entries...)
	all = append(all, o.entries...)
	var kept []mvEntry
	for i, e := range all {
		dominated := false
		for j, f := range all {
			if i == j {
				continue
			}
			le, _ := e.vc.Compare(f.vc)
			ge, _ := f.vc.Compare(e.vc)
			eq := le && ge && e.val == f.val
			if (le && !ge) || (eq && j < i) {
				dominated = true
				break
			}
		}
		if !dominated {
			kept = append(kept, e)
		}
	}
	sortMVEntries(kept)
	return &MVRegister{entries: kept}, nil
}

// Compare is entry-wise dominance: every entry must be strictly dominated
// by, or identical to, some entry of other. Identity requires the value as
// well as the clock — an entry with the same clock but a different value
// is a concurrent sibling, not a cover, and Merge retains both. (A
// non-strict clock-only check would call states with different surviving
// values "equivalent", breaking digest equality ⇔ state equality.)
func (r *MVRegister) Compare(other State) (bool, error) {
	o, ok := other.(*MVRegister)
	if !ok {
		return false, typeMismatch(r, other)
	}
	for _, e := range r.entries {
		found := false
		for _, f := range o.entries {
			le, _ := e.vc.Compare(f.vc)
			ge, _ := f.vc.Compare(e.vc)
			if (le && !ge) || (le && ge && e.val == f.val) {
				found = true
				break
			}
		}
		if !found {
			return false, nil
		}
	}
	return true, nil
}

// TypeName implements State.
func (r *MVRegister) TypeName() string { return TypeMVRegister }

// MarshalBinary implements State.
func (r *MVRegister) MarshalBinary() ([]byte, error) {
	e := newEncBuf(32 * (len(r.entries) + 1))
	e.uvarint(uint64(len(r.entries)))
	for _, en := range r.entries {
		e.str(en.val)
		e.strU64Map(en.vc.clock)
	}
	return e.bytes(), nil
}

// UnmarshalBinary implements Unmarshaler.
func (r *MVRegister) UnmarshalBinary(data []byte) error {
	d := newDecBuf(data)
	n, err := d.count()
	if err != nil {
		return err
	}
	entries := make([]mvEntry, 0, n)
	for i := 0; i < n; i++ {
		val, err := d.str()
		if err != nil {
			return err
		}
		m, err := d.strU64Map()
		if err != nil {
			return err
		}
		entries = append(entries, mvEntry{val: val, vc: &VClock{clock: m}})
	}
	if err := d.done(); err != nil {
		return err
	}
	r.entries = entries
	return nil
}

// String renders the register for logs and test failures.
func (r *MVRegister) String() string {
	return fmt.Sprintf("MVRegister{%s}", strings.Join(r.Values(), ","))
}

func sortMVEntries(entries []mvEntry) {
	sort.Slice(entries, func(i, j int) bool {
		if entries[i].val != entries[j].val {
			return entries[i].val < entries[j].val
		}
		bi, _ := entries[i].vc.MarshalBinary()
		bj, _ := entries[j].vc.MarshalBinary()
		return string(bi) < string(bj)
	})
}

func mustVClock(s State, err error) *VClock {
	if err != nil {
		panic(err)
	}
	return s.(*VClock)
}
