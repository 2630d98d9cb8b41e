package crdt

import (
	"fmt"
	"slices"
	"strconv"
	"strings"
)

// ORSet is an observed-remove (add-wins) set. Every add attaches a unique
// tag; a remove tombstones exactly the tags observed at the removing
// replica, so adds concurrent with a remove survive. The lattice is the
// product of two grow-only sets: (element,tag) pairs and removed tags.
//
// Representation: each grow-only set is a list of immutable chunks, runs
// of items in ascending key order. An add item is an element with its
// tags, ascending and duplicate-free (never none) and kept in their wire
// encoding (tagSet); a tombstone item is the removed tag as its key, with
// no tags. That is the order the wire format emits, so marshalling never
// sorts. Chunk boundaries are content-defined: an item ends its chunk
// exactly when a fixed hash of its key hits (cutsChunk, one key in
// chunkSpan), so the chunks of a set are a function of its items alone.
// Equal states have equal chunks however they were built, merged or
// decoded, and a state differs from the one it was derived from only in
// the chunks around the keys that changed.
//
// States are immutable, and results share chunks with their operands: no
// chunk, slice or string is written once the value that holds it has been
// built. Add, Remove, Merge and Delta skip the chunks two operands share
// (the same chunk, or equal items) and build only the chunks holding a
// changed key plus a new list of chunk pointers; Merge even returns an
// operand itself when that operand already is the join. Nothing may
// therefore modify an ORSet in place, inside or outside this package.
//
// DigestOf an ORSet is a Merkle root, not the hash of its encoding: a
// domain-separated SHA-256 over the SHA-256 of each chunk, which every
// chunk computes at most once and keeps. Digesting a state one add ahead
// of a digested one hashes one chunk and the root.
//
// A decoded state lives in one arena: UnmarshalBinary copies the frame
// once, every element, tag list and tombstone is a substring of that copy,
// and every chunk's items are a window of one item array. One live string
// keeps the whole arena alive, so every chunk that may hold such strings
// is marked (arena). A join keeps the chunks and strings of its receiver,
// marked ones included, but clones every string it takes from a marked
// chunk of its argument: a join that keeps one entry of a 43 KB frame
// does not pin the other 999.
type ORSet struct {
	adds, tombs []*chunk
}

// orEntry is one item of a chunk: an element with every tag it was ever
// added under, or a tombstone (elem is the removed tag, tags is empty).
type orEntry struct {
	elem string
	tags tagSet
}

var (
	_ State       = (*ORSet)(nil)
	_ Unmarshaler = (*ORSet)(nil)
	_ DeltaState  = (*ORSet)(nil)
)

// NewORSet returns the empty (bottom) set.
func NewORSet() *ORSet { return &ORSet{} }

// Add returns a set with e added under a fresh tag derived from the actor
// and its per-actor sequence number seq. (actor, seq) pairs must be unique
// across all adds, which each replica guarantees locally by counting.
func (s *ORSet) Add(e, actor string, seq uint64) *ORSet {
	var buf [48]byte
	tag := strconv.AppendUint(append(append(buf[:0], actor...), '#'), seq, 10)
	ci, i, found := locate(s.adds, e)
	x, cut, next := orEntry{elem: e}, false, i
	if found {
		x = s.adds[ci].items[i]
		tags := x.tags.with(string(tag))
		if tags == x.tags {
			return s
		}
		x.tags, cut, next = tags, s.adds[ci].cutAt(i), i+1
	} else {
		x.tags, cut = tagsOf([]string{string(tag)}), cutsChunk(e)
	}
	// The chunks before e's are kept, e's chunk is rebuilt around it (in
	// two when e cuts it), and the chunks after it are kept.
	sc := getScratch()
	defer sc.release()
	b := builder{out: sc.spine[:0], items: sc.items[:0]}
	b.takeAll(s.adds[:ci], false)
	if ci == len(s.adds) {
		b.item(x, false, cut)
	} else {
		c := s.adds[ci]
		for _, y := range c.items[:i] {
			b.item(y, c.arena, false)
		}
		b.item(x, c.arena, cut)
		b.rest(s.adds, ci, next, false)
	}
	return newSet(b.done(), s.tombs)
}

// Remove returns a set with every currently observed tag of e tombstoned.
// Adds of e that this state has not observed are unaffected (add wins).
func (s *ORSet) Remove(e string) *ORSet {
	ci, i, found := locate(s.adds, e)
	if !found {
		return s
	}
	c := s.adds[ci]
	sc := getScratch()
	defer sc.release()
	dead := builder{items: sc.items[:0]}
	for _, tag := range c.items[i].tags.strs(nil) {
		dead.item(orEntry{elem: tag}, c.arena, cutsChunk(tag))
	}
	removed := dead.done()
	if listLE(removed, s.tombs) {
		return s
	}
	b := builder{out: sc.spine[:0], items: sc.items[:0]}
	join(&b, s.tombs, removed, false)
	return newSet(s.adds, b.done())
}

// live reports whether at least one of an entry's tags is not tombstoned.
func (s *ORSet) live(x orEntry) bool {
	var buf [4]string
	for _, tag := range x.tags.strs(buf[:0]) {
		if _, _, dead := locate(s.tombs, tag); !dead {
			return true
		}
	}
	return false
}

// Contains reports whether e has at least one live (non-tombstoned) tag.
func (s *ORSet) Contains(e string) bool {
	ci, i, found := locate(s.adds, e)
	return found && s.live(s.adds[ci].items[i])
}

// Elements returns the live members in sorted order.
func (s *ORSet) Elements() []string {
	out := make([]string, 0, count(s.adds))
	for _, c := range s.adds {
		for _, x := range c.items {
			if s.live(x) {
				out = append(out, x.elem)
			}
		}
	}
	return out
}

// le reports s ⊑ o, list by list.
func (s *ORSet) le(o *ORSet) bool {
	return s == o || listLE(s.adds, o.adds) && listLE(s.tombs, o.tombs)
}

// Merge unions the (element, tag) pairs and the tombstones. When one
// operand already dominates the other it is returned as is; otherwise the
// result is a new set that shares every chunk only one side contributed
// to, except that what it takes from a chunk of the argument marked arena
// is cloned (see ORSet).
func (s *ORSet) Merge(other State) (State, error) {
	o, ok := other.(*ORSet)
	if !ok {
		return nil, typeMismatch(s, other)
	}
	switch {
	case o.le(s):
		return s, nil
	case s.le(o):
		return o, nil
	}
	sc := getScratch()
	defer sc.release()
	b := builder{out: sc.spine[:0], items: sc.items[:0]}
	join(&b, s.adds, o.adds, true)
	adds := b.done()
	b = builder{out: adds[len(adds):], items: sc.items[:0]}
	join(&b, s.tombs, o.tombs, true)
	return newSet(adds, b.done()), nil
}

// Compare is component-wise inclusion of tags and tombstones.
func (s *ORSet) Compare(other State) (bool, error) {
	o, ok := other.(*ORSet)
	if !ok {
		return false, typeMismatch(s, other)
	}
	return s.le(o), nil
}

// TypeName implements State.
func (s *ORSet) TypeName() string { return TypeORSet }

// AppendBinary implements State. The chunks are already in wire order, so
// encoding is one copying walk.
func (s *ORSet) AppendBinary(b []byte) ([]byte, error) {
	e := encBuf{b: b}
	for _, list := range [2][]*chunk{s.adds, s.tombs} {
		e.uvarint(uint64(count(list)))
		for _, c := range list {
			e.b = c.appendItems(e.b)
		}
	}
	return e.b, nil
}

// binaryLen sums the sizes the chunks keep: no walk of their items.
func (s *ORSet) binaryLen() int {
	size := 0
	for _, list := range [2][]*chunk{s.adds, s.tombs} {
		size += uvarintLen(count(list))
		for _, c := range list {
			size += c.size
		}
	}
	return size
}

// UnmarshalBinary implements Unmarshaler. It accepts elements, tags and
// tombstones in any order and with repeats (a repeated element contributes
// the union of its tag lists, an element without tags contributes nothing),
// and pays for sorting only when the input is not in canonical order.
//
// A counting walk validates the frame and sizes every backing array
// exactly; then the frame is copied once into the state's arena and a
// second walk carves the state out of it: one string copy, whose windows
// are every element, tag list and tombstone, one item array, and one
// array of chunks with its list.
func (s *ORSet) UnmarshalBinary(data []byte) error {
	entries, tombs, err := orsetCounts(data)
	if err != nil {
		return err
	}
	d := &decBuf{b: data, arena: string(data)}
	n, err := d.count()
	if err != nil {
		return err
	}
	all := make([]orEntry, 0, entries+tombs)
	canonical := true
	for i := 0; i < n; i++ {
		el, err := d.str()
		if err != nil {
			return err
		}
		tags, err := d.tags()
		if err != nil {
			return err
		}
		if tags == "" {
			continue
		}
		if len(all) > 0 && all[len(all)-1].elem >= el {
			canonical = false
		}
		all = append(all, orEntry{elem: el, tags: tags})
	}
	byKey := func(a, b orEntry) int { return strings.Compare(a.elem, b.elem) }
	if !canonical {
		slices.SortFunc(all, byKey)
		out := all[:1]
		for _, x := range all[1:] {
			if last := &out[len(out)-1]; last.elem == x.elem {
				last.tags = unionTags(last.tags, x.tags, false)
			} else {
				out = append(out, x)
			}
		}
		all = out
	}
	added := len(all)
	if n, err = d.count(); err != nil {
		return err
	}
	for i := 0; i < n; i++ {
		tag, err := d.str()
		if err != nil {
			return err
		}
		if len(all) > added && all[len(all)-1].elem >= tag {
			canonical = false
		}
		all = append(all, orEntry{elem: tag})
	}
	if err := d.done(); err != nil {
		return err
	}
	if !canonical {
		removed := all[added:]
		slices.SortFunc(removed, byKey)
		all = append(all[:added], slices.CompactFunc(removed, func(a, b orEntry) bool { return a.elem == b.elem })...)
	}
	s.adds, s.tombs = carve(all[:added:added], all[added:])
	return nil
}

// orsetCounts validates an or-set payload without allocating and returns
// how many of its entries carry tags and how many tombstones it lists.
// Every count is bounded by the frame's length (decBuf.count).
func orsetCounts(data []byte) (entries, tombs int, err error) {
	d := decBuf{b: data}
	skip := func() error { // one string
		n, err := d.count()
		d.i += n
		return err
	}
	n, err := d.count()
	if err != nil {
		return 0, 0, err
	}
	for i := 0; i <= n; i++ { // n elements with their tag lists, then the tombstones
		if i < n {
			if err := skip(); err != nil {
				return 0, 0, err
			}
		}
		k, err := d.count()
		if err != nil {
			return 0, 0, err
		}
		for j := 0; j < k; j++ {
			if err := skip(); err != nil {
				return 0, 0, err
			}
		}
		if i < n && k > 0 {
			entries++
		}
		if i == n {
			tombs = k
		}
	}
	return entries, tombs, d.done()
}

// String renders the set for logs and test failures.
func (s *ORSet) String() string { return fmt.Sprintf("ORSet%v", s.Elements()) }

// Delta implements DeltaState: the (element, tag) pairs and tombstones the
// baseline is missing. A converged workload's add or remove produces a
// delta of one tag, independent of how large the set has grown, and costs
// the chunks that differ: the chunks of s the baseline shares are skipped
// by pointer.
func (s *ORSet) Delta(base State) (State, error) {
	b, ok := base.(*ORSet)
	if !ok {
		return nil, typeMismatch(s, base)
	}
	sc := getScratch()
	defer sc.release()
	out := builder{out: sc.spine[:0], items: sc.items[:0]}
	if !minus(&out, s.adds, b.adds) {
		return nil, errNotDominated(s)
	}
	adds := out.done()
	out = builder{out: adds[len(adds):], items: sc.items[:0]}
	if !minus(&out, s.tombs, b.tombs) {
		return nil, errNotDominated(s)
	}
	return newSet(adds, out.done()), nil
}

// cloneEntry returns x, or a copy of its element and tag list when clone is
// set.
func cloneEntry(x orEntry, clone bool) orEntry {
	if clone {
		return copyEntry(x)
	}
	return x
}

// copyEntry is cloneEntry's copying half, kept apart so that the path that
// copies nothing inlines into join's loop. The element and its tags are
// copied into one string, which they are windows of.
func copyEntry(x orEntry) orEntry {
	all := string(x.elem) + string(x.tags)
	return orEntry{elem: all[:len(x.elem)], tags: tagSet(all[len(x.elem):])}
}
