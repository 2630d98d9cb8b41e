package crdt

import (
	"bytes"
	"encoding/hex"
	"fmt"
	"math/rand"
	"testing"
	"unsafe"
)

// goldenORSetScript is a fixed add/remove/merge history that touches every
// ordering the encoding depends on: tags that sort lexicographically but not
// numerically (n1#10 < n1#2), one tag under two elements, the empty element,
// a remove of an absent element, a re-add after a remove, and merges in both
// directions.
func goldenORSetScript() (final *ORSet, delta State) {
	a := NewORSet().Add("pear", "n1", 1).Add("apple", "n1", 2).Add("apple", "n1", 10).Add("", "n2", 1)
	b := NewORSet().Add("fig", "n3", 1).Add("apple", "n3", 2).Add("quince", "n1", 2)
	b = b.Remove("apple").Remove("absent")
	a = a.Remove("pear").Add("pear", "n2", 2)
	m := MustMerge(a, b).(*ORSet)
	m = m.Add("zucchini", "n1", 3).Remove("fig").Remove("")
	for i := 0; i < 12; i++ {
		m = m.Add(fmt.Sprintf("bulk-%02d", (i*7)%12), fmt.Sprintf("n%d", i%3+1), uint64(100+i))
	}
	m = MustMerge(b.Add("fig", "n2", 9), m).(*ORSet)
	d, err := m.Delta(a)
	if err != nil {
		panic(err)
	}
	return m, d
}

// The two fixtures are Marshal of goldenORSetScript's results as printed by
// the map-of-maps ORSet this representation replaced (commit b2a18bb).
// Digests, snapshots and every same-seed sweep depend on these bytes.
const (
	goldenORSetFinal = "066f722d736574af02120001046e322331056170706c6503056e31233130046e312332046e3323320762756c6b2d303001066e31233130300762756c6b2d303101066e32233130370762756c6b2d303201066e33233130320762756c6b2d303301066e31233130390762756c6b2d303401066e32233130340762756c6b2d303501066e33233131310762756c6b2d303601066e31233130360762756c6b2d303701066e32233130310762756c6b2d303801066e33233130380762756c6b2d303901066e31233130330762756c6b2d313001066e32233131300762756c6b2d313101066e33233130350366696702046e322339046e332331047065617202046e312331046e322332067175696e636501046e312332087a75636368696e6901046e31233304046e312331046e322331046e332331046e332332"
	goldenORSetDelta = "066f722d736574880210056170706c6501046e3323320762756c6b2d303001066e31233130300762756c6b2d303101066e32233130370762756c6b2d303201066e33233130320762756c6b2d303301066e31233130390762756c6b2d303401066e32233130340762756c6b2d303501066e33233131310762756c6b2d303601066e31233130360762756c6b2d303701066e32233130310762756c6b2d303801066e33233130380762756c6b2d303901066e31233130330762756c6b2d313001066e32233131300762756c6b2d313101066e33233130350366696702046e322339046e332331067175696e636501046e312332087a75636368696e6901046e31233303046e322331046e332331046e332332"
)

func mustMarshal(t testing.TB, s State) []byte {
	t.Helper()
	raw, err := Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

func TestORSetGoldenBytes(t *testing.T) {
	final, delta := goldenORSetScript()
	if got := hex.EncodeToString(mustMarshal(t, final)); got != goldenORSetFinal {
		t.Errorf("final state encoding changed:\n got %s\nwant %s", got, goldenORSetFinal)
	}
	if got := hex.EncodeToString(mustMarshal(t, delta)); got != goldenORSetDelta {
		t.Errorf("delta encoding changed:\n got %s\nwant %s", got, goldenORSetDelta)
	}
	want := "[apple bulk-00 bulk-01 bulk-02 bulk-03 bulk-04 bulk-05 bulk-06 bulk-07 bulk-08 bulk-09 bulk-10 bulk-11 fig pear quince zucchini]"
	if got := fmt.Sprint(final.Elements()); got != want {
		t.Errorf("elements = %s, want %s", got, want)
	}
}

// TestORSetOperandsImmutable: results share slices with their operands, so
// the one thing that must never happen is a write through a shared slice.
// Every operand is marshalled before and after each operation of a random
// history; the bytes must not move. Decoded states (one arena each) join the
// pool too, so merges clone out of arenas as well as share.
func TestORSetOperandsImmutable(t *testing.T) {
	r := rand.New(rand.NewSource(22))
	pool := []*ORSet{NewORSet()}
	pick := func() *ORSet { return pool[r.Intn(len(pool))] }
	for step := 0; step < 2000; step++ {
		a, b := pick(), pick()
		beforeA, beforeB := mustMarshal(t, a), mustMarshal(t, b)
		var out *ORSet
		switch op := r.Intn(5); op {
		case 0:
			out = a.Add(fmt.Sprintf("e%d", r.Intn(12)), fmt.Sprintf("a%d", r.Intn(3)), uint64(r.Intn(40)))
		case 1:
			out = a.Remove(fmt.Sprintf("e%d", r.Intn(12)))
		case 2:
			out = MustMerge(a, b).(*ORSet)
		case 3:
			joined := MustMerge(a, b).(*ORSet)
			beforeJ := mustMarshal(t, joined)
			d, err := joined.Delta(b)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(beforeJ, mustMarshal(t, joined)) {
				t.Fatalf("step %d: Delta wrote to its receiver", step)
			}
			out = d.(*ORSet)
		case 4:
			d, err := Unmarshal(beforeA)
			if err != nil {
				t.Fatal(err)
			}
			out = d.(*ORSet)
		}
		if !bytes.Equal(beforeA, mustMarshal(t, a)) || !bytes.Equal(beforeB, mustMarshal(t, b)) {
			t.Fatalf("step %d: an operand changed under the operation", step)
		}
		pool = append(pool, out)
		if len(pool) > 24 {
			pool = pool[1:]
		}
	}
}

// orsetFrame hand-encodes an or-set frame from entries and tombstones in
// exactly the order given, which the package's own encoder never does.
func orsetFrame(entries []orEntry, tombs []string) []byte {
	var e encBuf
	e.uvarint(uint64(len(entries)))
	for _, x := range entries {
		e.str(x.elem)
		e.strs(x.tags)
	}
	e.strs(tombs)
	var out encBuf
	out.str(TypeORSet)
	out.str(string(e.b))
	return out.b
}

func TestORSetDecodesNonCanonicalInput(t *testing.T) {
	canonical := NewORSet().Add("a", "n1", 1).Add("a", "n2", 1).Add("b", "n1", 2).Add("c", "n3", 7).Remove("b").Add("b", "n2", 5)
	want := mustMarshal(t, canonical)
	cases := map[string][]byte{
		"shuffled elements": orsetFrame([]orEntry{
			{"c", []string{"n3#7"}}, {"a", []string{"n1#1", "n2#1"}}, {"b", []string{"n1#2", "n2#5"}},
		}, []string{"n1#2"}),
		"shuffled and repeated tags": orsetFrame([]orEntry{
			{"a", []string{"n2#1", "n1#1", "n2#1"}}, {"b", []string{"n2#5", "n1#2"}}, {"c", []string{"n3#7", "n3#7"}},
		}, []string{"n1#2", "n1#2"}),
		"repeated element with split tags": orsetFrame([]orEntry{
			{"b", []string{"n2#5"}}, {"a", []string{"n1#1"}}, {"c", []string{"n3#7"}}, {"a", []string{"n2#1"}}, {"b", []string{"n1#2"}},
		}, []string{"n1#2"}),
		"element without tags": orsetFrame([]orEntry{
			{"a", []string{"n1#1", "n2#1"}}, {"aa", nil}, {"b", []string{"n1#2", "n2#5"}}, {"c", []string{"n3#7"}},
		}, []string{"n1#2"}),
	}
	for name, frame := range cases {
		t.Run(name, func(t *testing.T) {
			got, err := Unmarshal(frame)
			if err != nil {
				t.Fatal(err)
			}
			if eq, err := Equivalent(got, canonical); err != nil || !eq {
				t.Fatalf("decoded %v, want a state equivalent to %v (err=%v)", got, canonical, err)
			}
			if raw := mustMarshal(t, got); !bytes.Equal(raw, want) {
				t.Fatalf("re-marshal not canonical:\n got %x\nwant %x", raw, want)
			}
		})
	}
}

// TestUnmarshalRejectsOversizedCounts: a collection count is checked against
// the bytes that remain before anything is sized by it. The pn-counter frame
// is the committed FuzzUnmarshal crasher: 16 bytes asking for 268 M map
// entries.
func TestUnmarshalRejectsOversizedCounts(t *testing.T) {
	huge := []byte{0xff, 0xff, 0xff, 0x7f}
	frame := func(name string, payload ...[]byte) []byte {
		var e encBuf
		e.str(name)
		e.str(string(bytes.Join(payload, nil)))
		return e.b
	}
	for name, raw := range map[string][]byte{
		"pn-counter slots":  []byte("\npn-counter\x0e\xff\xff\xff\x7f0000000000"),
		"g-counter slots":   frame(TypeGCounter, huge, []byte("0000")),
		"or-set elements":   frame(TypeORSet, huge, []byte("0000")),
		"or-set tags":       frame(TypeORSet, []byte{1, 1, 'x'}, huge, []byte("0000")),
		"or-set tombstones": frame(TypeORSet, []byte{0}, huge, []byte("0000")),
	} {
		if _, err := Unmarshal(raw); err == nil {
			t.Errorf("%s: a count larger than the frame was accepted", name)
		}
	}
}

// bigORSet builds a converged n-element set, one tag per element.
func bigORSet(n int) *ORSet {
	s := NewORSet()
	for i := 0; i < n; i++ {
		s = s.Add(fmt.Sprintf("elem-%06d", i), "n1", uint64(i))
	}
	return s
}

// TestORSetAllocs pins the point of the representation: touching one tag of
// a 1,000-element set costs a constant number of allocations, and learning
// nothing costs none.
func TestORSetAllocs(t *testing.T) {
	s := bigORSet(1000)
	oneTag := NewORSet().Add("elem-000500x", "n2", 1)
	grown := s.Add("elem-000500x", "n2", 1)
	var dominated State = bigORSet(999)
	frame, deltaFrame := mustMarshal(t, s), mustMarshal(t, oneTag)
	decodedDelta, err := Unmarshal(deltaFrame)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		max  float64
		op   func()
	}{
		{"Add new element", 4, func() { s.Add("elem-000500x", "n2", 1) }},
		{"Add new tag to an element", 4, func() { s.Add("elem-000500", "n2", 1) }},
		{"Merge one new tag", 4, func() { _, _ = s.Merge(oneTag) }},
		{"Merge full state one tag ahead", 4, func() { _, _ = s.Merge(grown) }},
		{"Merge dominated state", 0, func() { _, _ = s.Merge(dominated) }},
		{"Merge self", 0, func() { _, _ = s.Merge(s) }},
		// The result's entry array and top-level value, plus copies of
		// the decoded delta's element, tag list and tag.
		{"Merge decoded one-tag delta", 5, func() { _, _ = s.Merge(decodedDelta) }},
		// The state, its type name, one arena, one entry array and one
		// []string for every tag list: not one allocation per string.
		{"Unmarshal 1,000-element frame", 8, func() { _, _ = Unmarshal(frame) }},
		{"Unmarshal one-tag delta frame", 7, func() { _, _ = Unmarshal(deltaFrame) }},
	} {
		if got := testing.AllocsPerRun(50, tc.op); got > tc.max {
			t.Errorf("%s: %.0f allocs/op, want at most %.0f", tc.name, got, tc.max)
		}
	}
	if m, _ := s.Merge(dominated); m != State(s) {
		t.Error("Merge of a dominated state did not return the receiver itself")
	}
}

// TestUnmarshalCopiesOut: a decoded state owns its bytes, so the caller may
// reuse the frame the moment Unmarshal returns (a network read buffer, a
// file block).
func TestUnmarshalCopiesOut(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	states := []State{bigORSet(1000)}
	for _, name := range Names() {
		states = append(states, generators[name](r))
	}
	for _, s := range states {
		frame := mustMarshal(t, s)
		want := bytes.Clone(frame)
		got, err := Unmarshal(frame)
		if err != nil {
			t.Fatal(err)
		}
		for i := range frame {
			frame[i] = 0xa5
		}
		if raw := mustMarshal(t, got); !bytes.Equal(raw, want) {
			t.Errorf("%s: overwriting the frame changed the decoded state", s.TypeName())
		}
	}
}

// eachStr calls f on every non-empty string of s.
func eachStr(s *ORSet, f func(string)) {
	note := func(x string) {
		if x != "" {
			f(x)
		}
	}
	for _, x := range s.adds {
		note(x.elem)
		for _, tag := range x.tags {
			note(tag)
		}
	}
	for _, tomb := range s.tombs {
		note(tomb)
	}
}

func strAddr(x string) uintptr { return uintptr(unsafe.Pointer(unsafe.StringData(x))) }

// TestORSetMergeDoesNotPinArena: a decoded 1,000-element frame that adds
// one element merges into a receiver that holds the other 999 and one entry
// of its own, so neither side dominates. The union keeps one entry of the
// frame, and must not keep it inside the frame's arena. The other way round
// the union keeps every element of the decoded receiver, so it shares them
// and stays marked. A merge that returns the decoded state itself keeps the
// arena.
func TestORSetMergeDoesNotPinArena(t *testing.T) {
	full := bigORSet(1000).Remove("elem-000007")
	dec, err := Unmarshal(mustMarshal(t, full))
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := ^uintptr(0), uintptr(0) // the arena, or the part of it dec's strings span
	eachStr(dec.(*ORSet), func(x string) {
		lo, hi = min(lo, strAddr(x)), max(hi, strAddr(x)+uintptr(len(x)))
	})
	recv := bigORSet(999).Remove("elem-000007").Add("local", "n2", 1)
	want := full.Add("local", "n2", 1)
	m := MustMerge(recv, dec)
	if eq, err := Equivalent(m, want); err != nil || !eq {
		t.Fatalf("merge = %v, want %v (err=%v)", m, want, err)
	}
	pinned := 0
	eachStr(m.(*ORSet), func(x string) {
		if p := strAddr(x); p >= lo && p < hi {
			pinned++
		}
	})
	if pinned > 0 {
		t.Errorf("%d strings of the result lie in the decoded frame's arena", pinned)
	}
	if m.(*ORSet).arena {
		t.Error("a union that cloned everything it took from the arena is still marked")
	}
	back := MustMerge(dec, recv)
	if eq, err := Equivalent(back, want); err != nil || !eq {
		t.Fatalf("reverse merge = %v, want %v (err=%v)", back, want, err)
	}
	if !back.(*ORSet).arena {
		t.Error("a union sharing a decoded receiver's strings is not marked")
	}
	if m := MustMerge(bigORSet(999), dec); m != dec {
		t.Error("a merge the decoded state dominates did not return it")
	}
}

var benchSink State

// BenchmarkORSetMergeDelta1000 is a large read's join on the client and an
// acceptor's join of a MERGE delta: a one-tag delta, decoded off the wire,
// merged into a 1,000-element state.
func BenchmarkORSetMergeDelta1000(b *testing.B) {
	base := bigORSet(1000)
	delta, err := Unmarshal(mustMarshal(b, NewORSet().Add("elem-000500x", "n2", 1)))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSink, _ = base.Merge(delta)
	}
}

// BenchmarkORSetMerge1000 is the acceptor's step on the large-set workload:
// a 1,000-element state meets a peer's copy that is one add ahead in one
// place and one add behind in another, so neither dominates.
func BenchmarkORSetMerge1000(b *testing.B) {
	base := bigORSet(1000)
	mine := base.Add("elem-000250x", "n2", 1)
	raw := mustMarshal(b, base.Add("elem-000750x", "n3", 1))
	theirs, err := Unmarshal(raw) // no slices in common with mine, as off the wire
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSink, _ = mine.Merge(theirs)
	}
}
