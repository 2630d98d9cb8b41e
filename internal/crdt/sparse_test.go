package crdt

import (
	"bytes"
	"fmt"
	"slices"
	"strings"
	"testing"
)

// orModel is an or-set as two flat sorted sets, the oracle the kernel is
// checked against: its (element, tag) pairs, each as element, 0, tag, and
// its tombstones. Element names hold no 0 byte, so pairs sort by element,
// then tag.
type orModel struct {
	pairs, tombs []string
}

func modelOf(s *ORSet) orModel {
	var m orModel
	for _, c := range s.adds {
		for _, x := range c.items {
			for _, tag := range x.tags.strs(nil) {
				m.pairs = append(m.pairs, x.elem+"\x00"+tag)
			}
		}
	}
	for _, c := range s.tombs {
		for _, x := range c.items {
			m.tombs = append(m.tombs, x.elem)
		}
	}
	slices.Sort(m.pairs)
	return m
}

// le is the definition of ⊑: every pair and tombstone of m is in o.
func (m orModel) le(o orModel) bool {
	return len(flatMinus(m.pairs, o.pairs)) == 0 && len(flatMinus(m.tombs, o.tombs)) == 0
}

// join is m ∪ o; minus is what m holds and o does not.
func (m orModel) join(o orModel) orModel {
	return orModel{flatUnion(m.pairs, o.pairs), flatUnion(m.tombs, o.tombs)}
}

func (m orModel) minus(o orModel) orModel {
	return orModel{flatMinus(m.pairs, o.pairs), flatMinus(m.tombs, o.tombs)}
}

func flatUnion(a, b []string) []string {
	return slices.Compact(slices.Sorted(slices.Values(append(slices.Clone(a), b...))))
}

func flatMinus(a, b []string) []string {
	var out []string
	for _, x := range a {
		if _, found := slices.BinarySearch(b, x); !found {
			out = append(out, x)
		}
	}
	return out
}

// set builds the canonical ORSet of m directly, without Add or Merge.
func (m orModel) set() *ORSet {
	var adds, tombs []orEntry
	var tags []string
	for i, p := range m.pairs {
		e, tag, _ := strings.Cut(p, "\x00")
		tags = append(tags, tag)
		if i+1 == len(m.pairs) || !strings.HasPrefix(m.pairs[i+1], e+"\x00") {
			adds = append(adds, orEntry{elem: e, tags: tagsOf(tags)})
			tags = tags[:0]
		}
	}
	for _, tomb := range m.tombs {
		tombs = append(tombs, orEntry{elem: tomb})
	}
	return fromItems(adds, tombs)
}

// fromItems chunks two canonical item lists item by item, as the builder
// cuts them, into a set that shares nothing with any other.
func fromItems(adds, tombs []orEntry) *ORSet {
	build := func(xs []orEntry) []*chunk {
		var b builder
		for _, x := range xs {
			b.item(x, false, cutsChunk(x.elem))
		}
		return b.done()
	}
	return newSet(build(adds), build(tombs))
}

// sparseBase builds an n-element set directly, one tag per element, with
// every third element removed: tombstone lists long enough for a delta's
// few tombstones to take the sparse path.
func sparseBase(n int) *ORSet {
	adds := make([]orEntry, n)
	var tombs []string
	for i := range adds {
		tag := fmt.Sprintf("b#%d", i)
		adds[i] = orEntry{elem: fmt.Sprintf("e%05d", 2*i), tags: tagsOf([]string{tag})}
		if i%3 == 0 {
			tombs = append(tombs, tag)
		}
	}
	slices.Sort(tombs)
	items := make([]orEntry, len(tombs))
	for i, tomb := range tombs {
		items[i] = orEntry{elem: tomb}
	}
	return fromItems(adds, items)
}

// apply runs a program on s: each byte adds (high bit clear) or removes
// one element, spread over the base's elements, the gaps between them and
// past its end, so adds hit both existing and fresh elements.
func apply(s *ORSet, n int, actor string, prog []byte) *ORSet {
	step := n/64 + 1
	for i, b := range prog {
		e := fmt.Sprintf("e%05d", int(b&0x7f)*step+i%2)
		if b&0x80 == 0 {
			s = s.Add(e, actor, uint64(i))
		} else {
			s = s.Remove(e)
		}
	}
	return s
}

// FuzzORSetSparse checks le, Merge and Delta against the map oracle on
// states that share structure (Add and Remove results of one base), on
// a large base against 1–3-entry deltas (the sparse paths), and on
// decoded copies that share nothing: Compare agrees with ⊑, Merge with
// the union, Delta with the difference, and C ⊔ (S − C) encodes as S, byte
// for byte, for every pair with C ⊑ S.
func FuzzORSetSparse(f *testing.F) {
	f.Add(uint16(1000), []byte{3, 0x85, 7}, []byte{9}, []byte{0x83, 40, 41})
	f.Add(uint16(1000), []byte{}, []byte{5, 5}, []byte{5})
	f.Add(uint16(64), []byte{1, 2, 0x81}, []byte{0x82, 3}, []byte{})
	f.Add(uint16(0), []byte{1}, []byte{0x81}, []byte{1, 2, 3, 4})
	f.Fuzz(func(t *testing.T, size uint16, baseProg, xProg, yProg []byte) {
		n := int(size % 1025)
		base := apply(sparseBase(n), n, "b", baseProg)
		x := apply(base, n, "x", xProg)
		y := apply(base, n, "y", yProg)
		small := apply(NewORSet(), n, "y", yProg[:min(len(yProg), 3)])
		states := []*ORSet{base, x, y, small}
		for _, s := range []*ORSet{x, y} {
			d, err := s.Delta(base)
			if err != nil {
				t.Fatalf("Delta of a state derived from its base: %v", err)
			}
			states = append(states, d.(*ORSet))
		}
		for _, s := range states[:4] {
			back, err := Unmarshal(mustMarshal(t, s))
			if err != nil {
				t.Fatal(err)
			}
			states = append(states, back.(*ORSet))
		}
		models := make([]orModel, len(states))
		for i, s := range states {
			models[i] = modelOf(s)
		}
		for i, c := range states {
			for j, s := range states {
				checkPair(t, i, j, c, s, models[i], models[j])
			}
		}
	})
}

func checkPair(t *testing.T, i, j int, c, s *ORSet, cm, sm orModel) {
	t.Helper()
	want := cm.le(sm)
	if got, _ := c.Compare(s); got != want {
		t.Fatalf("states %d ⊑ %d: Compare says %t, the definition %t", i, j, got, want)
	}
	m, err := c.Merge(s)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := mustMarshal(t, m), mustMarshal(t, cm.join(sm).set()); !bytes.Equal(got, want) {
		t.Fatalf("states %d ⊔ %d: Merge is not the union", i, j)
	}
	d, err := s.Delta(c)
	if !want {
		if err == nil {
			t.Fatalf("states %d, %d: Delta against a base it does not dominate succeeded", j, i)
		}
		return
	}
	if err != nil {
		t.Fatalf("states %d, %d: %v", j, i, err)
	}
	if got, want := mustMarshal(t, d), mustMarshal(t, sm.minus(cm).set()); !bytes.Equal(got, want) {
		t.Fatalf("states %d − %d: Delta is not the difference", j, i)
	}
	back, err := c.Merge(d)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(mustMarshal(t, back), mustMarshal(t, s)) {
		t.Fatalf("states %d, %d: C ⊔ (S − C) does not encode as S", i, j)
	}
}

// TestORSetSparseSharesAndSizes pins what a join of a small delta keeps
// of a large state: every chunk of the large side that holds none of the
// delta's elements is shared by pointer, only the chunks around them are
// new, and what the join takes from an arena argument is cloned.
func TestORSetSparseSharesAndSizes(t *testing.T) {
	s := bigORSet(1000)
	keys := []string{"elem-000500x", "elem-000001"}
	delta, err := Unmarshal(mustMarshal(t, NewORSet().Add(keys[0], "n2", 1).Add(keys[1], "n2", 2)))
	if err != nil {
		t.Fatal(err)
	}
	m, err := s.Merge(delta)
	if err != nil {
		t.Fatal(err)
	}
	got := m.(*ORSet)
	if n := count(got.adds); n != 1001 {
		t.Fatalf("%d entries, want 1,001", n)
	}
	touched := map[int]bool{}
	for _, k := range keys {
		ci, _, _ := locate(s.adds, k)
		touched[ci] = true
	}
	kept := map[*chunk]bool{}
	for _, c := range got.adds {
		kept[c] = true
	}
	for ci, c := range s.adds {
		if !touched[ci] && !kept[c] {
			t.Errorf("chunk %d of the receiver holds no delta element but was copied, not shared", ci)
		}
	}
	if fresh := len(got.adds) - (len(s.adds) - len(touched)); fresh > 2*len(keys) {
		t.Errorf("%d new chunks for %d new elements", fresh, len(keys))
	}
	lo, hi := ^uintptr(0), uintptr(0)
	eachStr(delta.(*ORSet), func(x string) {
		lo, hi = min(lo, strAddr(x)), max(hi, strAddr(x)+uintptr(len(x)))
	})
	eachStr(got, func(x string) {
		if p := strAddr(x); p >= lo && p < hi {
			t.Errorf("%q lies in the argument's arena", x)
		}
	})
	if !got.Contains(keys[0]) || !got.Contains(keys[1]) {
		t.Error("the delta's entries are missing from the join")
	}

	// The other way round the large side is the argument: a receiver of
	// two entries joins a decoded 1,000-element state, and clones every
	// string it takes from it.
	big, err := Unmarshal(mustMarshal(t, s))
	if err != nil {
		t.Fatal(err)
	}
	lo, hi = ^uintptr(0), uintptr(0)
	eachStr(big.(*ORSet), func(x string) {
		lo, hi = min(lo, strAddr(x)), max(hi, strAddr(x)+uintptr(len(x)))
	})
	small := NewORSet().Add(keys[0], "n2", 1).Add(keys[1], "n2", 2)
	back := MustMerge(small, big).(*ORSet)
	if n := count(back.adds); n != 1001 {
		t.Fatalf("%d entries, want 1,001", n)
	}
	if !bytes.Equal(mustMarshal(t, back), mustMarshal(t, got)) {
		t.Error("the two joins differ")
	}
	pinned := 0
	eachStr(back, func(x string) {
		if p := strAddr(x); p >= lo && p < hi {
			pinned++
		}
	})
	if pinned > 0 {
		t.Errorf("%d strings of the join lie in the decoded argument's arena", pinned)
	}
}
