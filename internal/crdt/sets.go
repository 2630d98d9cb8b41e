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
// Representation: both grow-only sets are sorted slices. adds is ordered by
// element and holds each element's tags in ascending order without
// duplicates (an entry always has at least one tag); tombs is ascending and
// duplicate-free. That is the order the wire format emits, so marshalling
// never sorts, and Merge, Compare and Delta are each one two-pointer walk.
//
// States are immutable, and results may share with operands: no slice is
// written once the value that holds it has been built, so Add, Remove, Merge
// and Delta allocate only the slices that actually differ and alias every
// untouched entry, tag list and tombstone list of their operands. Merge even
// returns an operand itself when that operand already is the join. Nothing
// may therefore modify an ORSet in place, inside or outside this package.
type ORSet struct {
	adds  []orEntry
	tombs []string
}

// orEntry is one element with every tag it was ever added under.
type orEntry struct {
	elem string
	tags []string
}

var (
	_ State       = (*ORSet)(nil)
	_ Unmarshaler = (*ORSet)(nil)
	_ DeltaState  = (*ORSet)(nil)
)

// NewORSet returns the empty (bottom) set.
func NewORSet() *ORSet { return &ORSet{} }

// find returns the position of e in s.adds, or where it would be inserted.
func (s *ORSet) find(e string) (int, bool) {
	return slices.BinarySearchFunc(s.adds, e, func(x orEntry, e string) int { return strings.Compare(x.elem, e) })
}

// Add returns a set with e added under a fresh tag derived from the actor
// and its per-actor sequence number seq. (actor, seq) pairs must be unique
// across all adds, which each replica guarantees locally by counting.
func (s *ORSet) Add(e, actor string, seq uint64) *ORSet {
	var buf [48]byte
	tag := string(strconv.AppendUint(append(append(buf[:0], actor...), '#'), seq, 10))
	i, found := s.find(e)
	entry := orEntry{elem: e}
	rest := s.adds[i:]
	if found {
		entry.tags = insertStr(s.adds[i].tags, tag)
		if sameStrs(entry.tags, s.adds[i].tags) {
			return s
		}
		rest = rest[1:]
	} else {
		entry.tags = []string{tag}
	}
	adds := make([]orEntry, 0, len(s.adds)+1)
	adds = append(append(adds, s.adds[:i]...), entry)
	return &ORSet{adds: append(adds, rest...), tombs: s.tombs}
}

// Remove returns a set with every currently observed tag of e tombstoned.
// Adds of e that this state has not observed are unaffected (add wins).
func (s *ORSet) Remove(e string) *ORSet {
	i, found := s.find(e)
	if !found {
		return s
	}
	tombs := unionStrs(s.tombs, s.adds[i].tags)
	if sameStrs(tombs, s.tombs) {
		return s
	}
	return &ORSet{adds: s.adds, tombs: tombs}
}

// live reports whether at least one of an entry's tags is not tombstoned.
func (s *ORSet) live(x orEntry) bool {
	for _, tag := range x.tags {
		if _, dead := slices.BinarySearch(s.tombs, tag); !dead {
			return true
		}
	}
	return false
}

// Contains reports whether e has at least one live (non-tombstoned) tag.
func (s *ORSet) Contains(e string) bool {
	i, found := s.find(e)
	return found && s.live(s.adds[i])
}

// Elements returns the live members in sorted order.
func (s *ORSet) Elements() []string {
	out := make([]string, 0, len(s.adds))
	for _, x := range s.adds {
		if s.live(x) {
			out = append(out, x.elem)
		}
	}
	return out
}

// le reports s ⊑ o in one pass over both states.
func (s *ORSet) le(o *ORSet) bool {
	if len(s.adds) > len(o.adds) || len(s.tombs) > len(o.tombs) {
		return false
	}
	j := 0
	for _, x := range s.adds {
		for j < len(o.adds) && o.adds[j].elem < x.elem {
			j++
		}
		if j == len(o.adds) || o.adds[j].elem != x.elem || !subsetStrs(x.tags, o.adds[j].tags) {
			return false
		}
		j++
	}
	return subsetStrs(s.tombs, o.tombs)
}

// Merge unions the (element, tag) pairs and the tombstones. When one
// operand already dominates the other it is returned as is; otherwise the
// result is a new top-level value that shares every entry and tag list only
// one side contributed to.
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
	return &ORSet{adds: unionEntries(s.adds, o.adds), tombs: unionStrs(s.tombs, o.tombs)}, nil
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

// MarshalBinary implements State. The slices are already in wire order, so
// encoding is a sizing walk and a copying walk.
func (s *ORSet) MarshalBinary() ([]byte, error) {
	size := uvarintLen(len(s.adds)) + strsLen(s.tombs)
	for _, x := range s.adds {
		size += uvarintLen(len(x.elem)) + len(x.elem) + strsLen(x.tags)
	}
	e := newEncBuf(size)
	e.uvarint(uint64(len(s.adds)))
	for _, x := range s.adds {
		e.str(x.elem)
		e.strs(x.tags)
	}
	e.strs(s.tombs)
	return e.bytes(), nil
}

// UnmarshalBinary implements Unmarshaler. It accepts elements, tags and
// tombstones in any order and with repeats (a repeated element contributes
// the union of its tag lists, an element without tags contributes nothing),
// and pays for sorting only when the input is not in canonical order.
func (s *ORSet) UnmarshalBinary(data []byte) error {
	d := newDecBuf(data)
	n, err := d.count()
	if err != nil {
		return err
	}
	adds := make([]orEntry, 0, n)
	canonical := true
	for i := 0; i < n; i++ {
		el, err := d.str()
		if err != nil {
			return err
		}
		tags, err := d.sortedStrs()
		if err != nil {
			return err
		}
		if len(tags) == 0 {
			continue
		}
		if len(adds) > 0 && adds[len(adds)-1].elem >= el {
			canonical = false
		}
		adds = append(adds, orEntry{elem: el, tags: tags})
	}
	tombs, err := d.sortedStrs()
	if err != nil {
		return err
	}
	if err := d.done(); err != nil {
		return err
	}
	if !canonical {
		slices.SortFunc(adds, func(a, b orEntry) int { return strings.Compare(a.elem, b.elem) })
		out := adds[:1]
		for _, x := range adds[1:] {
			if last := &out[len(out)-1]; last.elem == x.elem {
				last.tags = unionStrs(last.tags, x.tags)
			} else {
				out = append(out, x)
			}
		}
		adds = out
	}
	s.adds, s.tombs = adds, tombs
	return nil
}

// String renders the set for logs and test failures.
func (s *ORSet) String() string { return fmt.Sprintf("ORSet%v", s.Elements()) }

// Delta implements DeltaState: the (element, tag) pairs and tombstones the
// baseline is missing. A converged workload's add or remove produces a
// delta of one tag, independent of how large the set has grown.
func (s *ORSet) Delta(base State) (State, error) {
	b, ok := base.(*ORSet)
	if !ok {
		return nil, typeMismatch(s, base)
	}
	if !b.le(s) {
		return nil, errNotDominated(s)
	}
	// b ⊑ s, so an entry of s differs from its counterpart in b exactly when
	// it has more tags; count those first to size the result.
	n, j := 0, 0
	for _, x := range s.adds {
		if len(tagsAt(b.adds, &j, x.elem)) < len(x.tags) {
			n++
		}
	}
	out := &ORSet{adds: make([]orEntry, 0, n), tombs: diffStrs(s.tombs, b.tombs)}
	j = 0
	for _, x := range s.adds {
		if have := tagsAt(b.adds, &j, x.elem); len(have) < len(x.tags) {
			out.adds = append(out.adds, orEntry{elem: x.elem, tags: diffStrs(x.tags, have)})
		}
	}
	return out, nil
}

// tagsAt returns the tags b[*j] holds for elem and steps past that entry, or
// nil when b[*j] is a later element. Callers walk a superset of b's elements
// in order, so b[*j] is never an earlier one.
func tagsAt(b []orEntry, j *int, elem string) []string {
	if *j == len(b) || b[*j].elem != elem {
		return nil
	}
	*j++
	return b[*j-1].tags
}

// The helpers below work on ascending, duplicate-free string slices and
// never write to their arguments.

// sameStrs reports whether a and b are the same slice, not merely equal.
func sameStrs(a, b []string) bool {
	return len(a) == len(b) && (len(a) == 0 || &a[0] == &b[0])
}

// subsetStrs reports a ⊆ b.
func subsetStrs(a, b []string) bool {
	if len(a) > len(b) {
		return false
	}
	if sameStrs(a, b) {
		return true
	}
	j := 0
	for _, x := range a {
		for j < len(b) && b[j] < x {
			j++
		}
		if j == len(b) || b[j] != x {
			return false
		}
		j++
	}
	return true
}

// insertStr returns a ∪ {x}: a itself when it already holds x.
func insertStr(a []string, x string) []string {
	i, found := slices.BinarySearch(a, x)
	if found {
		return a
	}
	out := make([]string, 0, len(a)+1)
	return append(append(append(out, a[:i]...), x), a[i:]...)
}

// unionStrs returns a ∪ b: a itself when b adds nothing, b itself when a
// adds nothing, otherwise one exactly sized new slice.
func unionStrs(a, b []string) []string {
	common, i, j := 0, 0, 0
	for i < len(a) && j < len(b) {
		c := strings.Compare(a[i], b[j])
		if c <= 0 {
			i++
		}
		if c >= 0 {
			j++
		}
		if c == 0 {
			common++
		}
	}
	switch common {
	case len(b):
		return a
	case len(a):
		return b
	}
	out := make([]string, 0, len(a)+len(b)-common)
	i, j = 0, 0
	for i < len(a) && j < len(b) {
		c := strings.Compare(a[i], b[j])
		if c <= 0 {
			out = append(out, a[i])
			i++
		} else {
			out = append(out, b[j])
		}
		if c >= 0 {
			j++
		}
	}
	return append(append(out, a[i:]...), b[j:]...)
}

// diffStrs returns a \ b for b ⊆ a: nil when nothing is left, a itself when
// b is empty, otherwise one exactly sized new slice.
func diffStrs(a, b []string) []string {
	switch len(b) {
	case len(a):
		return nil
	case 0:
		return a
	}
	out := make([]string, 0, len(a)-len(b))
	j := 0
	for _, x := range a {
		if j < len(b) && b[j] == x {
			j++
		} else {
			out = append(out, x)
		}
	}
	return out
}

// unionEntries merges two element-ordered entry lists into one exactly
// sized new slice. Entries only one side has are shared whole; an element
// both sides have gets the union of its tag lists, which is again shared
// when one side's list covers the other's.
func unionEntries(a, b []orEntry) []orEntry {
	common, i, j := 0, 0, 0
	for i < len(a) && j < len(b) {
		c := strings.Compare(a[i].elem, b[j].elem)
		if c <= 0 {
			i++
		}
		if c >= 0 {
			j++
		}
		if c == 0 {
			common++
		}
	}
	out := make([]orEntry, 0, len(a)+len(b)-common)
	i, j = 0, 0
	for i < len(a) && j < len(b) {
		switch c := strings.Compare(a[i].elem, b[j].elem); {
		case c < 0:
			out = append(out, a[i])
			i++
		case c > 0:
			out = append(out, b[j])
			j++
		default:
			out = append(out, orEntry{elem: a[i].elem, tags: unionStrs(a[i].tags, b[j].tags)})
			i++
			j++
		}
	}
	return append(append(out, a[i:]...), b[j:]...)
}
