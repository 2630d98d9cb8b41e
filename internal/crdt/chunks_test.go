package crdt

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
)

// chunkedContent is a multi-chunk or-set's content: 400 elements, some
// with two tags, and every seventh element removed.
type chunkedContent struct {
	adds    []struct{ elem, actor string }
	removed []string
}

func newChunkedContent() chunkedContent {
	var c chunkedContent
	for i := 0; i < 400; i++ {
		e := fmt.Sprintf("item-%03d", i)
		c.adds = append(c.adds, struct{ elem, actor string }{e, "n1"})
		if i%5 == 0 {
			c.adds = append(c.adds, struct{ elem, actor string }{e, "n2"})
		}
		if i%7 == 3 {
			c.removed = append(c.removed, e)
		}
	}
	return c
}

// build adds the content's pairs in the given order (tags are derived from
// the pair's position, so every order adds the same tags), then removes.
func (c chunkedContent) build(order []int, keep func(elem string) bool) *ORSet {
	s := NewORSet()
	for _, i := range order {
		if a := c.adds[i]; keep(a.elem) {
			s = s.Add(a.elem, a.actor, uint64(i+1))
		}
	}
	for _, e := range c.removed {
		if keep(e) {
			s = s.Remove(e)
		}
	}
	return s
}

// boundaries lists each chunk of both lists by its last key and length.
func boundaries(s *ORSet) []string {
	var out []string
	for _, list := range [2][]*chunk{s.adds, s.tombs} {
		for _, c := range list {
			out = append(out, fmt.Sprintf("%s/%d/%t", c.last(), len(c.items), c.cut))
		}
		out = append(out, "|")
	}
	return out
}

// TestORSetCanonicalChunks: chunk boundaries are a function of the content
// alone. The same set built by ascending, descending and shuffled adds, by
// a merge of two halves in either order, and by decoding, cuts into the
// same chunks, digests the same and marshals to the same bytes.
func TestORSetCanonicalChunks(t *testing.T) {
	c := newChunkedContent()
	all := func(string) bool { return true }
	asc := make([]int, len(c.adds))
	for i := range asc {
		asc[i] = i
	}
	desc := slices.Clone(asc)
	slices.Reverse(desc)
	shuffled := slices.Clone(asc)
	rand.New(rand.NewSource(7)).Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	even := func(e string) bool { return (e[len(e)-1]-'0')%2 == 0 }
	odd := func(e string) bool { return !even(e) }

	want := c.build(asc, all)
	if len(want.adds) < 8 || len(want.tombs) < 2 {
		t.Fatalf("%d add chunks, %d tombstone chunks: the content should span several of each", len(want.adds), len(want.tombs))
	}
	decoded, err := Unmarshal(mustMarshal(t, want))
	if err != nil {
		t.Fatal(err)
	}
	builds := map[string]*ORSet{
		"descending": c.build(desc, all),
		"shuffled":   c.build(shuffled, all),
		"even ⊔ odd": MustMerge(c.build(asc, even), c.build(shuffled, odd)).(*ORSet),
		"odd ⊔ even": MustMerge(c.build(desc, odd), c.build(asc, even)).(*ORSet),
		"decoded":    decoded.(*ORSet),
	}
	wantBounds, wantDigest, wantBytes := boundaries(want), mustDigest(t, want), mustMarshal(t, want)
	for name, s := range builds {
		if got := boundaries(s); !slices.Equal(got, wantBounds) {
			t.Errorf("%s: chunks %v, want %v", name, got, wantBounds)
		}
		if got := mustDigest(t, s); got != wantDigest {
			t.Errorf("%s: digest %v, want %v", name, got, wantDigest)
		}
		if got := mustMarshal(t, s); !bytes.Equal(got, wantBytes) {
			t.Errorf("%s: encoding differs", name)
		}
	}
}

func mustDigest(t testing.TB, s State) Digest {
	t.Helper()
	d, err := DigestOf(s)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// TestORSetConcurrentReaders: states share chunks and fill their chunk
// digests on first use, while the shard loop, server goroutines and the
// client cache read them at once. Readers of one multi-chunk state, and of
// states derived from it, digest, compare, merge, diff and marshal
// concurrently; every result must be the one a state that shares nothing
// gives. Run under -race.
func TestORSetConcurrentReaders(t *testing.T) {
	c := newChunkedContent()
	order := make([]int, len(c.adds))
	for i := range order {
		order[i] = i
	}
	all := func(string) bool { return true }
	shared := c.build(order, all)
	derived := []*ORSet{shared, shared.Add("item-200x", "n3", 1), shared.Remove("item-011"), shared.Add("item-399", "n3", 2)}
	type want struct {
		digest Digest
		raw    []byte
	}
	wants := make([]want, len(derived))
	for i, s := range derived {
		twin := fromItemsOf(s) // the same content, sharing no chunk
		wants[i] = want{mustDigest(t, twin), mustMarshal(t, twin)}
	}
	var wg sync.WaitGroup
	errs := make(chan string, 8*20*5) // room for every check of every round to fail
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for round := 0; round < 20; round++ {
				i := (g + round) % len(derived)
				s := derived[i]
				if d, err := DigestOf(s); err != nil || d != wants[i].digest {
					errs <- fmt.Sprintf("state %d: digest %v (err %v)", i, d, err)
				}
				if raw, err := Marshal(s); err != nil || !bytes.Equal(raw, wants[i].raw) {
					errs <- fmt.Sprintf("state %d: encoding differs (err %v)", i, err)
				}
				if le, err := shared.Compare(s); err != nil || !le {
					errs <- fmt.Sprintf("shared ⊑ state %d: %t (err %v)", i, le, err)
				}
				m, err := s.Merge(derived[(i+1)%len(derived)])
				if err != nil {
					errs <- err.Error()
					continue
				}
				if d, err := m.(*ORSet).Delta(s); err != nil {
					errs <- fmt.Sprintf("state %d: delta of a join: %v", i, err)
				} else if back := MustMerge(s, d); !bytes.Equal(encoding(back), encoding(m)) {
					errs <- fmt.Sprintf("state %d: s ⊔ (m − s) is not m", i)
				}
				runtime.Gosched()
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}

// fromItemsOf rebuilds s's content into chunks of its own.
func fromItemsOf(s *ORSet) *ORSet {
	var adds, tombs []orEntry
	for _, c := range s.adds {
		for _, x := range c.items {
			adds = append(adds, orEntry{elem: x.elem, tags: tagSet(strings.Clone(string(x.tags)))})
		}
	}
	for _, c := range s.tombs {
		for _, x := range c.items {
			tombs = append(tombs, orEntry{elem: x.elem})
		}
	}
	return fromItems(adds, tombs)
}

// encoding is Marshal for a goroutine that has no *testing.T to fail.
func encoding(s State) []byte {
	raw, err := Marshal(s)
	if err != nil {
		panic(err)
	}
	return raw
}
