package crdt

import (
	"fmt"
	"sort"
	"strconv"
)

// EWFlag is an enable-wins boolean flag: an OR-Set over a single logical
// token. Enables attach unique tags; disable tombstones all observed enable
// tags, so an enable concurrent with a disable survives (enable wins).
type EWFlag struct {
	enables map[string]struct{} // tags of enables
	tombs   map[string]struct{} // tombstoned enable tags
}

var (
	_ State       = (*EWFlag)(nil)
	_ Unmarshaler = (*EWFlag)(nil)
)

// NewEWFlag returns the flag's bottom element (disabled).
func NewEWFlag() *EWFlag {
	return &EWFlag{enables: map[string]struct{}{}, tombs: map[string]struct{}{}}
}

// Enable returns a copy with a fresh enable tag from (actor, seq).
func (f *EWFlag) Enable(actor string, seq uint64) *EWFlag {
	out := f.clone()
	out.enables[actor+"#"+strconv.FormatUint(seq, 10)] = struct{}{}
	return out
}

// Disable returns a copy with every observed enable tag tombstoned.
func (f *EWFlag) Disable() *EWFlag {
	out := f.clone()
	for tag := range out.enables {
		out.tombs[tag] = struct{}{}
	}
	return out
}

// Enabled reports whether any enable tag is live.
func (f *EWFlag) Enabled() bool {
	for tag := range f.enables {
		if _, dead := f.tombs[tag]; !dead {
			return true
		}
	}
	return false
}

func (f *EWFlag) clone() *EWFlag {
	return &EWFlag{enables: cloneStrSet(f.enables), tombs: cloneStrSet(f.tombs)}
}

// Merge unions tags and tombstones.
func (f *EWFlag) Merge(other State) (State, error) {
	o, ok := other.(*EWFlag)
	if !ok {
		return nil, typeMismatch(f, other)
	}
	out := f.clone()
	for tag := range o.enables {
		out.enables[tag] = struct{}{}
	}
	for tag := range o.tombs {
		out.tombs[tag] = struct{}{}
	}
	return out, nil
}

// Compare is component-wise inclusion.
func (f *EWFlag) Compare(other State) (bool, error) {
	o, ok := other.(*EWFlag)
	if !ok {
		return false, typeMismatch(f, other)
	}
	for tag := range f.enables {
		if _, ok := o.enables[tag]; !ok {
			return false, nil
		}
	}
	for tag := range f.tombs {
		if _, ok := o.tombs[tag]; !ok {
			return false, nil
		}
	}
	return true, nil
}

// TypeName implements State.
func (f *EWFlag) TypeName() string { return TypeEWFlag }

// MarshalBinary implements State.
func (f *EWFlag) MarshalBinary() ([]byte, error) {
	e := newEncBuf(16 * (len(f.enables) + len(f.tombs) + 1))
	e.strSet(f.enables)
	e.strSet(f.tombs)
	return e.bytes(), nil
}

// UnmarshalBinary implements Unmarshaler.
func (f *EWFlag) UnmarshalBinary(data []byte) error {
	d := newDecBuf(data)
	enables, err := d.strSet()
	if err != nil {
		return err
	}
	tombs, err := d.strSet()
	if err != nil {
		return err
	}
	if err := d.done(); err != nil {
		return err
	}
	f.enables, f.tombs = enables, tombs
	return nil
}

// String renders the flag for logs and test failures.
func (f *EWFlag) String() string { return fmt.Sprintf("EWFlag(%t)", f.Enabled()) }

// LWWMap is a map from string keys to last-writer-wins entries: the
// pointwise product lattice of LWW registers, with absent keys at bottom.
// Deletion is a write of a tombstone entry, so deletes participate in the
// same LWW arbitration as writes.
type LWWMap struct {
	entries map[string]lwwMapEntry
}

type lwwMapEntry struct {
	val     string
	ts      uint64
	actor   string
	deleted bool
}

var (
	_ State       = (*LWWMap)(nil)
	_ Unmarshaler = (*LWWMap)(nil)
)

// NewLWWMap returns the empty (bottom) map.
func NewLWWMap() *LWWMap { return &LWWMap{entries: map[string]lwwMapEntry{}} }

// Set returns a copy where key holds val if (ts, actor) exceeds the
// current stamp for key.
func (m *LWWMap) Set(key, val string, ts uint64, actor string) *LWWMap {
	return m.put(key, lwwMapEntry{val: val, ts: ts, actor: actor})
}

// Delete returns a copy where key is tombstoned if (ts, actor) exceeds the
// current stamp for key.
func (m *LWWMap) Delete(key string, ts uint64, actor string) *LWWMap {
	return m.put(key, lwwMapEntry{ts: ts, actor: actor, deleted: true})
}

func (m *LWWMap) put(key string, e lwwMapEntry) *LWWMap {
	out := m.clone()
	if cur, ok := out.entries[key]; !ok || cur.less(e) {
		out.entries[key] = e
	}
	return out
}

// less orders entries totally: stamp first, then the tombstone flag
// (delete wins a stamp tie), then the value. A total order per key keeps
// Merge commutative even when two writes (mis)use the same stamp for
// different contents, and keeps Compare-equivalence aligned with what Get
// observes — the contract the state digests depend on.
func (e lwwMapEntry) less(o lwwMapEntry) bool {
	if e.ts != o.ts || e.actor != o.actor {
		return stampLess(e.ts, e.actor, o.ts, o.actor)
	}
	if e.deleted != o.deleted {
		return !e.deleted
	}
	return e.val < o.val
}

// Get returns the live value for key.
func (m *LWWMap) Get(key string) (string, bool) {
	e, ok := m.entries[key]
	if !ok || e.deleted {
		return "", false
	}
	return e.val, true
}

// Keys returns the live keys in sorted order.
func (m *LWWMap) Keys() []string {
	out := make([]string, 0, len(m.entries))
	for k, e := range m.entries {
		if !e.deleted {
			out = append(out, k)
		}
	}
	sort.Strings(out)
	return out
}

// Len returns the number of live keys.
func (m *LWWMap) Len() int {
	n := 0
	for _, e := range m.entries {
		if !e.deleted {
			n++
		}
	}
	return n
}

func (m *LWWMap) clone() *LWWMap {
	entries := make(map[string]lwwMapEntry, len(m.entries))
	for k, v := range m.entries {
		entries[k] = v
	}
	return &LWWMap{entries: entries}
}

// Merge keeps, per key, the entry with the larger stamp.
func (m *LWWMap) Merge(other State) (State, error) {
	o, ok := other.(*LWWMap)
	if !ok {
		return nil, typeMismatch(m, other)
	}
	out := m.clone()
	for k, e := range o.entries {
		if cur, ok := out.entries[k]; !ok || cur.less(e) {
			out.entries[k] = e
		}
	}
	return out, nil
}

// Compare is pointwise entry ≤ over the keys of the receiver.
func (m *LWWMap) Compare(other State) (bool, error) {
	o, ok := other.(*LWWMap)
	if !ok {
		return false, typeMismatch(m, other)
	}
	for k, e := range m.entries {
		oe, ok := o.entries[k]
		if !ok {
			return false, nil
		}
		if e != oe && !e.less(oe) {
			return false, nil
		}
	}
	return true, nil
}

// TypeName implements State.
func (m *LWWMap) TypeName() string { return TypeLWWMap }

// MarshalBinary implements State.
func (m *LWWMap) MarshalBinary() ([]byte, error) {
	e := newEncBuf(32 * (len(m.entries) + 1))
	keys := make([]string, 0, len(m.entries))
	for k := range m.entries {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	e.uvarint(uint64(len(keys)))
	for _, k := range keys {
		en := m.entries[k]
		e.str(k)
		e.str(en.val)
		e.uvarint(en.ts)
		e.str(en.actor)
		e.bool(en.deleted)
	}
	return e.bytes(), nil
}

// UnmarshalBinary implements Unmarshaler.
func (m *LWWMap) UnmarshalBinary(data []byte) error {
	d := newDecBuf(data)
	n, err := d.count()
	if err != nil {
		return err
	}
	entries := make(map[string]lwwMapEntry, n)
	for i := 0; i < n; i++ {
		k, err := d.str()
		if err != nil {
			return err
		}
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
		deleted, err := d.bool()
		if err != nil {
			return err
		}
		entries[k] = lwwMapEntry{val: val, ts: ts, actor: actor, deleted: deleted}
	}
	if err := d.done(); err != nil {
		return err
	}
	m.entries = entries
	return nil
}
