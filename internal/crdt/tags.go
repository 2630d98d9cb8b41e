package crdt

import (
	"encoding/binary"
	"slices"
	"strings"
)

// tagSet is the tags of one or-set element, ascending and duplicate-free,
// kept in their wire encoding: a count, then each tag length-prefixed
// (uvarints). A decoded element's tags are then a window of its frame's
// arena, one tag is one string rather than a string and a list, and
// marshalling copies the tags as they are. The empty tagSet holds no tags,
// as a tombstone item's does.
type tagSet string

// tagsOf encodes xs, which must be ascending and duplicate-free, in one
// allocation.
func tagsOf(xs []string) tagSet {
	if len(xs) == 0 {
		return ""
	}
	n := uvarintLen(len(xs))
	for _, x := range xs {
		n += strLen(x)
	}
	var sb strings.Builder
	var tmp [binary.MaxVarintLen64]byte
	sb.Grow(n)
	sb.Write(binary.AppendUvarint(tmp[:0], uint64(len(xs))))
	for _, x := range xs {
		sb.Write(binary.AppendUvarint(tmp[:0], uint64(len(x))))
		sb.WriteString(x)
	}
	return tagSet(sb.String())
}

// strs appends the tags of t to buf.
func (t tagSet) strs(buf []string) []string {
	if t == "" {
		return buf
	}
	n, i := uvarintAt(string(t), 0)
	for ; n > 0; n-- {
		var l uint64
		l, i = uvarintAt(string(t), i)
		buf = append(buf, string(t[i:i+int(l)]))
		i += int(l)
	}
	return buf
}

// uvarintAt decodes the uvarint at s[i:], which tagsOf or the decoder's
// check wrote, and returns it with the position after it.
func uvarintAt(s string, i int) (uint64, int) {
	var v uint64
	for shift := 0; ; shift += 7 {
		b := s[i]
		i++
		v |= uint64(b&0x7f) << shift
		if b < 0x80 {
			return v, i
		}
	}
}

// with returns t ∪ {tag}: t itself when it holds tag.
func (t tagSet) with(tag string) tagSet {
	var buf [4]string
	xs := t.strs(buf[:0])
	i, found := slices.BinarySearch(xs, tag)
	if found {
		return t
	}
	return tagsOf(slices.Insert(xs, i, tag))
}

// subsetTags reports a ⊆ b.
func subsetTags(a, b tagSet) bool {
	if a == b || a == "" {
		return true
	}
	var ab, bb [4]string
	return subsetStrs(a.strs(ab[:0]), b.strs(bb[:0]))
}

// unionTags returns a ∪ b: a itself when b adds nothing, b itself when a
// adds nothing, otherwise a new encoding. With cloneB set (b lies in an
// arena) a result that is b is a copy of it.
func unionTags(a, b tagSet, cloneB bool) tagSet {
	if a == b {
		return a
	}
	var ab, bb, out [8]string
	as, bs := a.strs(ab[:0]), b.strs(bb[:0])
	switch {
	case subsetStrs(bs, as):
		return a
	case subsetStrs(as, bs):
		if cloneB {
			return tagSet(strings.Clone(string(b)))
		}
		return b
	}
	u := out[:0]
	i, j := 0, 0
	for i < len(as) && j < len(bs) {
		switch c := strings.Compare(as[i], bs[j]); {
		case c < 0:
			u = append(u, as[i])
			i++
		case c > 0:
			u = append(u, bs[j])
			j++
		default:
			u = append(u, as[i])
			i, j = i+1, j+1
		}
	}
	return tagsOf(append(append(u, as[i:]...), bs[j:]...))
}

// minusTags returns a \ b for b ⊆ a: a itself when b is empty, "" when
// nothing is left.
func minusTags(a, b tagSet) tagSet {
	if b == "" {
		return a
	}
	var ab, bb, out [4]string
	as, bs := a.strs(ab[:0]), b.strs(bb[:0])
	if len(as) == len(bs) {
		return ""
	}
	d := out[:0]
	j := 0
	for _, x := range as {
		if j < len(bs) && bs[j] == x {
			j++
		} else {
			d = append(d, x)
		}
	}
	return tagsOf(d)
}

// subsetStrs reports a ⊆ b for ascending, duplicate-free lists.
func subsetStrs(a, b []string) bool {
	if len(a) > len(b) {
		return false
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

// tags reads a tag list. A strictly ascending list in its shortest
// encoding, which is what Marshal writes, is returned as its window of
// the arena; any other is sorted, deduplicated and encoded afresh, so a
// tagSet is always canonical.
func (d *decBuf) tags() (tagSet, error) {
	start := d.i
	n, err := d.count()
	if err != nil || n == 0 {
		return "", err
	}
	canonical, size, prev := true, uvarintLen(n), ""
	for k := 0; k < n; k++ {
		s, err := d.str()
		if err != nil {
			return "", err
		}
		canonical = canonical && (k == 0 || prev < s)
		prev, size = s, size+strLen(s)
	}
	if canonical && d.i-start == size {
		return tagSet(d.arena[start:d.i]), nil
	}
	again := decBuf{b: d.b, i: start, arena: d.arena}
	xs := make([]string, n)
	if _, err := again.count(); err != nil {
		return "", err
	}
	for k := range xs {
		if xs[k], err = again.str(); err != nil {
			return "", err
		}
	}
	slices.Sort(xs)
	return tagsOf(slices.Compact(xs)), nil
}
