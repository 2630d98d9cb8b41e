package crdt

import (
	"crypto/sha256"
	"encoding/binary"
	"math/bits"
	"slices"
	"strings"
	"sync"
)

// An ORSet's two grow-only sets are each a list of chunks (see ORSet).
// This file holds the chunk list: its content-defined cuts, chunk digests
// and the Merkle root, allocation, the builder that keeps a list canonical,
// and the walks of two lists that Compare, Merge and Delta are made of.

// chunk is one run of a chunk list. Its fields are set when it is built
// and never written again, except sum, which once fills on first use.
type chunk struct {
	items []orEntry
	size  int  // encoded bytes of items
	cut   bool // the last item's key ends a chunk: false only for a list's last chunk
	arena bool // strings may lie in a decoded frame's arena
	once  sync.Once
	sum   [sha256.Size]byte // SHA-256 of the chunk's domain and encoding
}

// chunkSpan is the expected number of items per chunk: a 1,000-element
// set is ~63 chunks of ~700 encoded bytes. Smaller chunks make an update
// copy and hash less, larger ones a shorter list of chunk pointers to
// copy and a shorter Merkle root.
const chunkSpan = 16

// cutsChunk reports whether an item with this key ends its chunk: a fixed
// 64-bit hash of the key (8 little-endian bytes a step, the tail as one
// short word, then a finalizer) hits one value in chunkSpan. It must never
// change: digests depend on it.
func cutsChunk(key string) bool {
	const k0, k1 = 0x9e3779b97f4a7c15, 0xbf58476d1ce4e5b9
	h := uint64(len(key)) * k0
	for ; len(key) >= 8; key = key[8:] {
		w := uint64(key[0]) | uint64(key[1])<<8 | uint64(key[2])<<16 | uint64(key[3])<<24 |
			uint64(key[4])<<32 | uint64(key[5])<<40 | uint64(key[6])<<48 | uint64(key[7])<<56
		h = bits.RotateLeft64((h^w)*k1, 31)
	}
	var w uint64
	for i := 0; i < len(key); i++ {
		w |= uint64(key[i]) << (8 * i)
	}
	h = (h ^ w) * k1
	h ^= h >> 29
	h *= k0
	h ^= h >> 32
	return h%chunkSpan == 0
}

// last returns the key of the chunk's last item.
func (c *chunk) last() string { return c.items[len(c.items)-1].elem }

// cutAt reports whether item i ends the chunk on a cut.
func (c *chunk) cutAt(i int) bool { return c.cut && i == len(c.items)-1 }

// itemLen is the encoded size of an item: its key, then its tags (none
// for a tombstone) as they are kept.
func itemLen(x orEntry) int { return strLen(x.elem) + len(x.tags) }

// appendItems appends the items' wire encoding to b.
func (c *chunk) appendItems(b []byte) []byte {
	for _, x := range c.items {
		b = append(binary.AppendUvarint(b, uint64(len(x.elem))), x.elem...)
		b = append(b, x.tags...)
	}
	return b
}

// Digest preimage prefixes: a chunk's and the root's are apart, and as
// no Marshal frame starts with a 'c' (it would name a 99-byte type),
// neither is the preimage of another type's digest.
const (
	rootDomain  = "crdtsmr/or-set/root\x00"
	chunkDomain = "crdtsmr/or-set/chunk\x00"
)

// digest returns the chunk's SHA-256, computing it on first use only:
// concurrent readers of one state wait for the one computation.
func (c *chunk) digest() *[sha256.Size]byte {
	c.once.Do(func() {
		var buf [2048]byte
		c.sum = sha256.Sum256(c.appendItems(append(buf[:0], chunkDomain...)))
	})
	return &c.sum
}

// merkleRoot is the set's digest: SHA-256 over the root prefix, then each
// list's chunk count and its chunks' digests.
func (s *ORSet) merkleRoot() Digest {
	var buf [4096]byte
	b := append(buf[:0], rootDomain...)
	for _, list := range [2][]*chunk{s.adds, s.tombs} {
		b = binary.AppendUvarint(b, uint64(len(list)))
		for _, c := range list {
			b = append(b, c.digest()[:]...)
		}
	}
	return Digest(sha256.Sum256(b))
}

// chunkBlock and setBlock allocate a value together with the array its
// slice is carved from, in one allocation: a chunk with its items, a set
// with its chunk lists. An update then allocates one of each, not two.
type chunkBlock[A any] struct {
	c     chunk
	items A
}

type setBlock[A any] struct {
	s     ORSet
	lists A
}

// newChunk returns a chunk holding a copy of items, allocated with them in
// one block of the next size class up: classes 1.33 to 1.5 apart, so a
// chunk (16 items on average) wastes ~15 % of its room.
func newChunk(items []orEntry, cut, arena bool) *chunk {
	n := len(items)
	var c *chunk
	var room []orEntry
	switch {
	case n <= 2:
		b := new(chunkBlock[[2]orEntry])
		c, room = &b.c, b.items[:]
	case n <= 4:
		b := new(chunkBlock[[4]orEntry])
		c, room = &b.c, b.items[:]
	case n <= 6:
		b := new(chunkBlock[[6]orEntry])
		c, room = &b.c, b.items[:]
	case n <= 8:
		b := new(chunkBlock[[8]orEntry])
		c, room = &b.c, b.items[:]
	case n <= 12:
		b := new(chunkBlock[[12]orEntry])
		c, room = &b.c, b.items[:]
	case n <= 16:
		b := new(chunkBlock[[16]orEntry])
		c, room = &b.c, b.items[:]
	case n <= 24:
		b := new(chunkBlock[[24]orEntry])
		c, room = &b.c, b.items[:]
	case n <= 32:
		b := new(chunkBlock[[32]orEntry])
		c, room = &b.c, b.items[:]
	case n <= 48:
		b := new(chunkBlock[[48]orEntry])
		c, room = &b.c, b.items[:]
	case n <= 64:
		b := new(chunkBlock[[64]orEntry])
		c, room = &b.c, b.items[:]
	default:
		c, room = new(chunk), make([]orEntry, n)
	}
	c.items = room[:copy(room, items):n]
	c.cut, c.arena = cut, arena
	for _, x := range c.items {
		c.size += itemLen(x)
	}
	return c
}

// newSet returns a set holding copies of the two chunk lists, allocated
// with them in one block when they fit one.
func newSet(adds, tombs []*chunk) *ORSet {
	n := len(adds) + len(tombs)
	var s *ORSet
	var room []*chunk
	switch {
	case n <= 2:
		b := new(setBlock[[2]*chunk])
		s, room = &b.s, b.lists[:]
	case n <= 8:
		b := new(setBlock[[8]*chunk])
		s, room = &b.s, b.lists[:]
	case n <= 32:
		b := new(setBlock[[32]*chunk])
		s, room = &b.s, b.lists[:]
	case n <= 128:
		b := new(setBlock[[128]*chunk])
		s, room = &b.s, b.lists[:]
	default:
		s, room = new(ORSet), make([]*chunk, n)
	}
	if len(adds) > 0 {
		s.adds = room[:copy(room, adds):len(adds)]
	}
	if len(tombs) > 0 {
		s.tombs = room[len(adds) : len(adds)+copy(room[len(adds):], tombs) : n]
	}
	return s
}

// scratch is the room a builder gathers a chunk list and a chunk's items
// in before newSet and newChunk copy them out: pooled, so that building a
// list of up to 128 chunks with chunks of up to 64 items allocates only
// its results.
type scratch struct {
	spine [128]*chunk
	items [64]orEntry
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

func getScratch() *scratch { return scratchPool.Get().(*scratch) }

// release returns sc to the pool once its contents are copied out,
// dropping what it points to.
func (sc *scratch) release() {
	clear(sc.spine[:])
	clear(sc.items[:])
	scratchPool.Put(sc)
}

// builder assembles a canonical chunk list from whole chunks and single
// items, fed in ascending key order. A whole chunk that arrives on a cut
// is kept as is (it would be cut the same way again); items are gathered
// until one that cuts.
type builder struct {
	out   []*chunk
	open  *chunk    // a whole chunk taken last, which does not end on a cut
	items []orEntry // the chunk being built (when open is nil)
	arena bool      // some gathered item may hold arena strings
}

// item appends x; cut is cutsChunk(x.elem), which callers mostly know.
func (b *builder) item(x orEntry, arena, cut bool) {
	if c := b.open; c != nil {
		b.open = nil
		b.items, b.arena = append(b.items, c.items...), c.arena
	}
	b.items = append(b.items, x)
	b.arena = b.arena || arena
	if cut {
		b.flush(true)
	}
}

// flush closes the chunk being built; cut tells whether its last item
// cuts.
func (b *builder) flush(cut bool) {
	if b.open != nil {
		b.out = append(b.out, b.open)
		b.open = nil
	}
	if len(b.items) > 0 {
		b.out = append(b.out, newChunk(b.items, cut, b.arena))
		b.items, b.arena = b.items[:0], false
	}
}

// take appends every item of c: the chunk itself when the list is on a
// cut and c needs no cloning, else item by item.
func (b *builder) take(c *chunk, clone bool) { b.takeFrom(c, 0, clone) }

// takeFrom appends the items of c from position i on. With clone set,
// items of a marked chunk are copied out of its arena.
func (b *builder) takeFrom(c *chunk, i int, clone bool) {
	clone = clone && c.arena
	if i == 0 && !clone && b.open == nil && len(b.items) == 0 {
		if c.cut {
			b.out = append(b.out, c)
		} else {
			b.open = c
		}
		return
	}
	for ; i < len(c.items); i++ {
		x := c.items[i]
		if clone {
			x = copyEntry(x)
		}
		b.item(x, c.arena && !clone, c.cutAt(i))
	}
}

// takeAll appends the chunks of cs.
func (b *builder) takeAll(cs []*chunk, clone bool) {
	for _, c := range cs {
		b.take(c, clone)
	}
}

// rest appends what a walk of cs left: from item i of chunk ci on.
func (b *builder) rest(cs []*chunk, ci, i int, clone bool) {
	if ci < len(cs) {
		b.takeFrom(cs[ci], i, clone)
		b.takeAll(cs[ci+1:], clone)
	}
}

// done returns the list.
func (b *builder) done() []*chunk {
	b.flush(false)
	return b.out
}

// sameItems reports whether two chunks hold the same items: the same
// chunk, or equal copies (a state and its decoded twin).
func sameItems(a, b *chunk) bool {
	if a == b {
		return true
	}
	if len(a.items) != len(b.items) || a.size != b.size {
		return false
	}
	for i, x := range a.items {
		if y := b.items[i]; x.elem != y.elem || x.tags != y.tags {
			return false
		}
	}
	return true
}

// searchChunks returns the index of the first chunk of cs whose last key
// is at or after key.
func searchChunks(cs []*chunk, key string) int {
	i, _ := slices.BinarySearchFunc(cs, key, func(c *chunk, k string) int { return strings.Compare(c.last(), k) })
	return i
}

// searchItems returns the position of key in xs, or where it would be
// inserted, and whether it is there.
func searchItems(xs []orEntry, key string) (int, bool) {
	return slices.BinarySearchFunc(xs, key, func(x orEntry, k string) int { return strings.Compare(x.elem, k) })
}

// locate returns the chunk of cs that holds key, or would hold it once
// inserted, and the item position in it. ci == len(cs) means key would
// start a new chunk after a last chunk that ends on a cut.
func locate(cs []*chunk, key string) (ci, i int, found bool) {
	ci = searchChunks(cs, key)
	if ci == len(cs) {
		if ci == 0 || cs[ci-1].cut {
			return ci, 0, false
		}
		ci--
	}
	i, found = searchItems(cs[ci].items, key)
	return ci, i, found
}

// count returns the number of items in cs.
func count(cs []*chunk) int {
	n := 0
	for _, c := range cs {
		n += len(c.items)
	}
	return n
}

// listLE reports that every item of a is in b with a subset of its tags.
// Chunks the two lists share are skipped (by pointer, or by equal items
// for a decoded twin), and so are b's chunks that end before a's next
// key; a's items are binary searched in the chunk of b that would hold
// them. So a one-tag delta against a large state, or two versions of one
// lineage, cost what differs.
func listLE(a, b []*chunk) bool {
	i, j, ai, bj := 0, 0, 0, 0
	for i < len(a) {
		if j == len(b) {
			return false
		}
		ca, cb := a[i], b[j]
		if ai == 0 && bj == 0 && sameItems(ca, cb) {
			i, j = i+1, j+1
			continue
		}
		x := ca.items[ai]
		if cb.last() < x.elem {
			j, bj = j+1, 0
			if j < len(b) && b[j].last() < x.elem {
				j += searchChunks(b[j:], x.elem)
			}
			continue
		}
		k, found := searchItems(cb.items[bj:], x.elem)
		k += bj
		if !found || !subsetTags(x.tags, cb.items[k].tags) {
			return false
		}
		if ai++; ai == len(ca.items) {
			i, ai = i+1, 0
		}
		if bj = k + 1; bj == len(cb.items) {
			j, bj = j+1, 0
		}
	}
	return true
}

// join feeds the union of the lists a and b to out: the chunks both share
// and the runs of either side that end before the other's next key whole,
// the rest item by item. With cloneB set, what it takes from a marked
// chunk of b is cloned.
func join(out *builder, a, b []*chunk, cloneB bool) {
	i, j, ai, bj := 0, 0, 0, 0
	for i < len(a) && j < len(b) {
		ca, cb := a[i], b[j]
		x, y := ca.items[ai], cb.items[bj]
		switch {
		case ai == 0 && bj == 0 && sameItems(ca, cb):
			out.take(ca, false)
			i, j = i+1, j+1
			continue
		case ai == 0 && ca.last() < y.elem:
			k := i + searchChunks(a[i:], y.elem)
			out.takeAll(a[i:k], false)
			i = k
			continue
		case bj == 0 && cb.last() < x.elem:
			k := j + searchChunks(b[j:], x.elem)
			out.takeAll(b[j:k], cloneB)
			j = k
			continue
		}
		clone := cloneB && cb.arena
		switch c := strings.Compare(x.elem, y.elem); {
		case c < 0:
			out.item(x, ca.arena, ca.cutAt(ai))
			ai++
		case c > 0:
			out.item(cloneEntry(y, clone), cb.arena && !clone, cb.cutAt(bj))
			bj++
		default:
			out.item(orEntry{elem: x.elem, tags: unionTags(x.tags, y.tags, clone)}, ca.arena || cb.arena && !clone, ca.cutAt(ai))
			ai, bj = ai+1, bj+1
		}
		if ai == len(ca.items) {
			i, ai = i+1, 0
		}
		if bj == len(cb.items) {
			j, bj = j+1, 0
		}
	}
	out.rest(a, i, ai, false)
	out.rest(b, j, bj, cloneB)
}

// minus feeds out what list s holds and list b does not: whole chunks of
// s that end before b's next key, and for an item both hold the tags b
// lacks. It reports false when b holds an item or tag s does not.
func minus(out *builder, s, b []*chunk) bool {
	i, j, si, bj := 0, 0, 0, 0
	for i < len(s) && j < len(b) {
		cs, cb := s[i], b[j]
		x, y := cs.items[si], cb.items[bj]
		switch {
		case si == 0 && bj == 0 && sameItems(cs, cb):
			i, j = i+1, j+1
			continue
		case si == 0 && cs.last() < y.elem:
			k := i + searchChunks(s[i:], y.elem)
			out.takeAll(s[i:k], false)
			i = k
			continue
		}
		switch c := strings.Compare(x.elem, y.elem); {
		case c < 0:
			out.item(x, cs.arena, cs.cutAt(si))
		case c > 0:
			return false // an item s lacks
		default:
			if !subsetTags(y.tags, x.tags) {
				return false
			}
			if d := minusTags(x.tags, y.tags); d != "" {
				out.item(orEntry{elem: x.elem, tags: d}, cs.arena, cs.cutAt(si))
			}
			if bj++; bj == len(cb.items) {
				j, bj = j+1, 0
			}
		}
		if si++; si == len(cs.items) {
			i, si = i+1, 0
		}
	}
	if j < len(b) {
		return false
	}
	out.rest(s, i, si, false)
	return true
}

// carve cuts two canonical item lists into chunks, all marked arena, in
// one walk: one array of chunks, one list of pointers to them.
func carve(adds, tombs []orEntry) (addList, tombList []*chunk) {
	if len(adds)+len(tombs) == 0 {
		return nil, nil
	}
	n := len(adds) + len(tombs)
	chunks := make([]chunk, 0, n/chunkSpan+n/(4*chunkSpan)+4) // ~1 in 200 sets regrows it
	na := 0
	for li, xs := range [2][]orEntry{adds, tombs} {
		start, size := 0, 0
		for i, x := range xs {
			size += itemLen(x)
			cut := cutsChunk(x.elem)
			if !cut && i < len(xs)-1 {
				continue
			}
			chunks = append(chunks, chunk{items: xs[start : i+1 : i+1], size: size, cut: cut, arena: true})
			start, size = i+1, 0
		}
		if li == 0 {
			na = len(chunks)
		}
	}
	list := make([]*chunk, len(chunks))
	for i := range chunks {
		list[i] = &chunks[i]
	}
	if na > 0 {
		addList = list[:na:na]
	}
	if na < len(list) {
		tombList = list[na:]
	}
	return addList, tombList
}
