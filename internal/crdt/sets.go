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
// never sorts. Delta, and Merge and Compare of states of similar size,
// walk both states in step. When one side of a comparison or join is
// sparseRatio times shorter (a one-tag delta against a 1,000-element
// state), its entries are binary searched in the longer side instead; and
// a state compared with itself, or with an Add or Remove result that
// shares its entries, is answered without a walk.
//
// States are immutable, and results may share with operands: no slice is
// written once the value that holds it has been built, so Add, Remove, Merge
// and Delta allocate only the slices that actually differ and alias every
// untouched entry, tag list and tombstone list of their operands. Merge even
// returns an operand itself when that operand already is the join. Nothing
// may therefore modify an ORSet in place, inside or outside this package.
//
// A decoded state lives in one arena: UnmarshalBinary copies the frame
// once, every element, tag and tombstone is a substring of that copy, and
// every tag list and the tombstone list are capped windows of one []string.
// One live string keeps the whole arena alive, so such a state is marked
// (arena), and so are the Add, Remove and Delta results that share its
// strings. A Merge that returns a marked operand itself keeps its arena, all
// of whose strings it still holds. A Merge that builds a new union keeps
// every element string of its receiver, so it shares a marked receiver's
// strings and keeps its mark; from the argument it may take one entry of
// many, so it clones every string and tag list it takes from a marked
// argument, and a join that keeps one entry of a 43 KB frame does not pin
// the other 999.
type ORSet struct {
	adds  []orEntry
	tombs []string
	arena bool // strings may lie in a decoded frame's arena
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

// find returns the position of e in s.adds, or where it would be inserted,
// and whether e is there.
func (s *ORSet) find(e string) (int, bool) {
	i := searchEntries(s.adds, e)
	return i, i < len(s.adds) && s.adds[i].elem == e
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
	return &ORSet{adds: append(adds, rest...), tombs: s.tombs, arena: s.arena}
}

// Remove returns a set with every currently observed tag of e tombstoned.
// Adds of e that this state has not observed are unaffected (add wins).
func (s *ORSet) Remove(e string) *ORSet {
	i, found := s.find(e)
	if !found {
		return s
	}
	tombs := unionStrs(s.tombs, s.adds[i].tags, false)
	if sameStrs(tombs, s.tombs) {
		return s
	}
	return &ORSet{adds: s.adds, tombs: tombs, arena: s.arena}
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

// sparseRatio is how many times shorter one sorted list must be than the
// other before le and unionEntries stop walking the longer one and binary
// search it once per entry of the shorter one instead. Joining a one-tag
// delta into, or comparing one with, a 1,000-element state then costs a
// few searches, not a walk of 1,000 entries.
const sparseRatio = 16

// le reports s ⊑ o: at once when s's entries are o's (the same value, or
// an Add or Remove result and its base share them), else in one pass over
// the shorter side of each list, searching the longer one when it is
// sparseRatio times longer.
func (s *ORSet) le(o *ORSet) bool {
	if s == o {
		return true
	}
	if len(s.adds) > len(o.adds) || len(s.tombs) > len(o.tombs) {
		return false
	}
	return entriesLE(s.adds, o.adds) && subsetStrs(s.tombs, o.tombs)
}

// entriesLE reports that every entry of a is in b with a subset of its
// tags, for len(a) ≤ len(b). Lists that start at one backing array hold
// the same entries, as states are immutable, so that answer is immediate.
func entriesLE(a, b []orEntry) bool {
	if len(a) == 0 || &a[0] == &b[0] {
		return true
	}
	sparse := len(a)*sparseRatio <= len(b)
	j := 0
	for _, x := range a {
		switch {
		case j < len(b) && b[j].elem == x.elem:
			// Lists of one lineage share their element strings, and
			// equal strings at one address compare without reading them.
		case sparse:
			j += searchEntries(b[j:], x.elem)
		default:
			for j < len(b) && b[j].elem < x.elem {
				j++
			}
		}
		if j == len(b) || b[j].elem != x.elem || !subsetStrs(x.tags, b[j].tags) {
			return false
		}
		j++
	}
	return true
}

// searchEntries returns the position of e in b, or where it would be
// inserted.
func searchEntries(b []orEntry, e string) int {
	i, _ := slices.BinarySearchFunc(b, e, func(x orEntry, e string) int { return strings.Compare(x.elem, e) })
	return i
}

// Merge unions the (element, tag) pairs and the tombstones. When one
// operand already dominates the other it is returned as is; otherwise the
// result is a new top-level value that shares every entry and tag list only
// one side contributed to, except that what it takes from an argument
// marked arena is cloned (see ORSet).
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
	return &ORSet{
		adds:  unionEntries(s.adds, o.adds, o.arena),
		tombs: unionStrs(s.tombs, o.tombs, o.arena),
		arena: s.arena,
	}, nil
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

// AppendBinary implements State. The slices are already in wire order, so
// encoding is one copying walk (after binaryLen's sizing walk in Marshal).
func (s *ORSet) AppendBinary(b []byte) ([]byte, error) {
	e := encBuf{b: b}
	e.uvarint(uint64(len(s.adds)))
	for _, x := range s.adds {
		e.str(x.elem)
		e.strs(x.tags)
	}
	e.strs(s.tombs)
	return e.b, nil
}

func (s *ORSet) binaryLen() int {
	size := uvarintLen(len(s.adds)) + strsLen(s.tombs)
	for _, x := range s.adds {
		size += strLen(x.elem) + strsLen(x.tags)
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
// second walk carves the state out of it: one string copy, one entry
// array and one []string for all tag lists and the tombstones.
func (s *ORSet) UnmarshalBinary(data []byte) error {
	entries, strs, err := orsetCounts(data)
	if err != nil {
		return err
	}
	d := &decBuf{b: data, arena: string(data)}
	n, err := d.count()
	if err != nil {
		return err
	}
	adds := make([]orEntry, 0, entries)
	buf := make([]string, strs)
	canonical := true
	for i := 0; i < n; i++ {
		el, err := d.str()
		if err != nil {
			return err
		}
		var tags []string
		if tags, buf, err = d.sortedStrs(buf); err != nil {
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
	tombs, _, err := d.sortedStrs(buf)
	if err != nil {
		return err
	}
	if !canonical {
		slices.SortFunc(adds, func(a, b orEntry) int { return strings.Compare(a.elem, b.elem) })
		out := adds[:1]
		for _, x := range adds[1:] {
			if last := &out[len(out)-1]; last.elem == x.elem {
				last.tags = unionStrs(last.tags, x.tags, false)
			} else {
				out = append(out, x)
			}
		}
		adds = out
	}
	s.adds, s.tombs, s.arena = adds, tombs, true
	return nil
}

// orsetCounts validates an or-set payload without allocating and returns
// how many of its entries carry tags and how many tag and tombstone
// strings it holds. Every count is bounded by the frame's length
// (decBuf.count).
func orsetCounts(data []byte) (entries, strs int, err error) {
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
		strs += k
	}
	return entries, strs, d.done()
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
	if len(b.adds) > len(s.adds) || !subsetStrs(b.tombs, s.tombs) {
		return nil, errNotDominated(s)
	}
	// One walk of s checks b ⊑ s and, to size the result, counts the
	// entries of s that b lacks or holds with fewer tags.
	n, j := 0, 0
	for _, x := range s.adds {
		switch {
		case j < len(b.adds) && b.adds[j].elem == x.elem:
			if !subsetStrs(b.adds[j].tags, x.tags) {
				return nil, errNotDominated(s)
			}
			if len(b.adds[j].tags) < len(x.tags) {
				n++
			}
			j++
		case j < len(b.adds) && b.adds[j].elem < x.elem:
			return nil, errNotDominated(s) // an element s lacks
		default:
			n++
		}
	}
	if j < len(b.adds) {
		return nil, errNotDominated(s)
	}
	out := &ORSet{adds: make([]orEntry, 0, n), tombs: diffStrs(s.tombs, b.tombs), arena: s.arena}
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

// subsetStrs reports a ⊆ b, searching b for each string of a when b is
// sparseRatio times longer (a delta's tombstones against a state's).
func subsetStrs(a, b []string) bool {
	if len(a) > len(b) {
		return false
	}
	if sameStrs(a, b) {
		return true
	}
	sparse := len(a)*sparseRatio <= len(b)
	j := 0
	for _, x := range a {
		if sparse {
			i, _ := slices.BinarySearch(b[j:], x)
			j += i
		}
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
// adds nothing, otherwise one exactly sized new slice. With cloneB set (b
// lies in an arena) whatever the result takes from b is a copy.
func unionStrs(a, b []string, cloneB bool) []string {
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
		return cloneStrs(b, cloneB)
	}
	out := make([]string, 0, len(a)+len(b)-common)
	i, j = 0, 0
	for i < len(a) && j < len(b) {
		c := strings.Compare(a[i], b[j])
		if c <= 0 {
			out = append(out, a[i])
			i++
		} else {
			out = append(out, cloneStr(b[j], cloneB))
		}
		if c >= 0 {
			j++
		}
	}
	return appendStrs(append(out, a[i:]...), b[j:], cloneB)
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
// when one side's list covers the other's. With cloneB set whatever the
// result takes from b is a copy, as in unionStrs. When one list is
// sparseRatio times shorter, unionSparse builds the same slice.
func unionEntries(a, b []orEntry, cloneB bool) []orEntry {
	if len(a)*sparseRatio <= len(b) || len(b)*sparseRatio <= len(a) {
		return unionSparse(a, b, cloneB)
	}
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
			out = append(out, cloneEntry(b[j], cloneB))
			j++
		default:
			out = append(out, orEntry{elem: a[i].elem, tags: unionStrs(a[i].tags, b[j].tags, cloneB)})
			i++
			j++
		}
	}
	return appendEntries(append(out, a[i:]...), b[j:], cloneB)
}

// unionSparse is unionEntries for lists of very different lengths: it
// searches the longer list for each entry of the shorter one, twice (to
// size the result, then to build it), and copies the runs of the longer
// list between those entries whole.
func unionSparse(a, b []orEntry, cloneB bool) []orEntry {
	small, big, bigIsB := a, b, true
	if len(b) < len(a) {
		small, big, bigIsB = b, a, false
	}
	common, k := 0, 0
	for _, x := range small {
		k += searchEntries(big[k:], x.elem)
		if k < len(big) && big[k].elem == x.elem {
			common++
			k++
		}
	}
	out := make([]orEntry, 0, len(a)+len(b)-common)
	k = 0
	for _, x := range small {
		n := k + searchEntries(big[k:], x.elem)
		out = appendEntries(out, big[k:n], cloneB && bigIsB)
		k = n
		if k == len(big) || big[k].elem != x.elem {
			out = append(out, cloneEntry(x, cloneB && !bigIsB))
			continue
		}
		ax, bx := x, big[k]
		if !bigIsB {
			ax, bx = bx, ax
		}
		out = append(out, orEntry{elem: ax.elem, tags: unionStrs(ax.tags, bx.tags, cloneB)})
		k++
	}
	return appendEntries(out, big[k:], cloneB && bigIsB)
}

// cloneStr returns x, or a copy of it when clone is set.
func cloneStr(x string, clone bool) string {
	if clone {
		return strings.Clone(x)
	}
	return x
}

// cloneStrs returns xs, or a copy of the list and its strings when clone is
// set.
func cloneStrs(xs []string, clone bool) []string {
	if !clone || len(xs) == 0 {
		return xs
	}
	return appendStrs(make([]string, 0, len(xs)), xs, true)
}

// appendStrs appends xs to out, copying each string when clone is set.
func appendStrs(out, xs []string, clone bool) []string {
	if !clone {
		return append(out, xs...)
	}
	for _, x := range xs {
		out = append(out, strings.Clone(x))
	}
	return out
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
// copies nothing inlines into unionEntries' loop.
func copyEntry(x orEntry) orEntry {
	return orEntry{elem: strings.Clone(x.elem), tags: cloneStrs(x.tags, true)}
}

// appendEntries appends xs to out, copying each entry when clone is set.
func appendEntries(out, xs []orEntry, clone bool) []orEntry {
	if !clone {
		return append(out, xs...)
	}
	for _, x := range xs {
		out = append(out, copyEntry(x))
	}
	return out
}
