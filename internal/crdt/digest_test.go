package crdt

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"testing"
)

// TestDigestEqualityIffEquivalence is the contract the replica wire's
// digest frames stand on: for every registered payload type — including
// the lww-register, which has no deltas and so always travels as a full
// state or a digest — digest equality must coincide exactly with state
// equivalence. One
// direction is marshal determinism (equivalent states encode identically),
// the other is collision-freedom on the generated sample.
func TestDigestEqualityIffEquivalence(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	for _, name := range Names() {
		gen := generators[name]
		t.Run(name, func(t *testing.T) {
			for i := 0; i < 60; i++ {
				a, b := gen(r), gen(r)
				da, err := DigestOf(a)
				if err != nil {
					t.Fatal(err)
				}
				db, err := DigestOf(b)
				if err != nil {
					t.Fatal(err)
				}
				eq, err := Equivalent(a, b)
				if err != nil {
					t.Fatal(err)
				}
				if eq != (da == db) {
					t.Fatalf("equivalent=%t but digest-equal=%t for %v vs %v", eq, da == db, a, b)
				}
				// Equivalence is also preserved through the codec: a decoded
				// copy must digest identically to the original.
				raw, err := Marshal(a)
				if err != nil {
					t.Fatal(err)
				}
				back, err := Unmarshal(raw)
				if err != nil {
					t.Fatal(err)
				}
				dback, err := DigestOf(back)
				if err != nil {
					t.Fatal(err)
				}
				if dback != da {
					t.Fatalf("%s: digest changed across codec round trip: %v vs %v", name, da, dback)
				}
			}
		})
	}
}

// TestEquivalentCountersMarshalIdentically: equivalent counters must
// marshal to identical bytes however they were built — with zero
// increments, merged in either order, or decoded from a frame that spells
// a zero slot out — or digest equality would stop meaning equivalence.
func TestEquivalentCountersMarshalIdentically(t *testing.T) {
	sameBytes := func(a, b State) {
		t.Helper()
		eq, err := Equivalent(a, b)
		if err != nil || !eq {
			t.Fatalf("%v and %v not equivalent (err=%v)", a, b, err)
		}
		ra, err := Marshal(a)
		if err != nil {
			t.Fatal(err)
		}
		rb, err := Marshal(b)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(ra, rb) {
			t.Fatalf("equivalent %v and %v marshal differently: %x vs %x", a, b, ra, rb)
		}
	}
	zero := NewGCounter().Inc("n1", 0)
	sameBytes(MustMerge(zero, NewGCounter()), MustMerge(NewGCounter(), zero))
	sameBytes(NewPNCounter().Inc("n1", 0).Dec("n2", 0), NewPNCounter())

	spelled := spellSlots([]slot{{"n1", 0}, {"n2", 3}})
	var decoded GCounter
	if err := decoded.UnmarshalBinary(spelled); err != nil {
		t.Fatal(err)
	}
	sameBytes(&decoded, NewGCounter().Inc("n2", 3))

	r := rand.New(rand.NewSource(11))
	for _, name := range []string{TypeGCounter, TypePNCounter} {
		gen := generators[name]
		for i := 0; i < 300; i++ {
			a, b := gen(r), gen(r)
			sameBytes(MustMerge(a, b), MustMerge(b, a))
		}
	}
}

func TestDigestZeroAndString(t *testing.T) {
	var zero Digest
	if !zero.IsZero() {
		t.Fatal("zero digest not IsZero")
	}
	d, err := DigestOf(NewGCounter())
	if err != nil {
		t.Fatal(err)
	}
	if d.IsZero() {
		t.Fatal("real digest reported zero")
	}
	if len(d.String()) != 12 {
		t.Fatalf("abbreviated digest %q, want 12 hex chars", d.String())
	}
}

func TestMemoDigestCachesByIdentity(t *testing.T) {
	var memo MemoDigest
	a := NewGCounter().Inc("r1", 3)
	d1, err := memo.Of(a)
	if err != nil {
		t.Fatal(err)
	}
	d2, err := memo.Of(a)
	if err != nil {
		t.Fatal(err)
	}
	if d1 != d2 {
		t.Fatal("memo changed digest for the same state")
	}
	b := a.Inc("r1", 1)
	d3, err := memo.Of(b)
	if err != nil {
		t.Fatal(err)
	}
	if d3 == d1 {
		t.Fatal("distinct states share a digest")
	}
	want, err := DigestOf(b)
	if err != nil {
		t.Fatal(err)
	}
	if d3 != want {
		t.Fatal("memo digest disagrees with DigestOf")
	}
}

// deltaTypes are the payload types the protocol ships deltas for.
var deltaTypes = []string{TypeGCounter, TypePNCounter, TypeORSet}

// TestDeltaLaw checks the join-decomposition contract of DeltaState:
// base ⊔ Delta(base) ≡ receiver, and merging the delta into any state
// dominating base yields a state dominating the receiver. The delta must
// also survive the codec, since it travels the wire as an ordinary state.
func TestDeltaLaw(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for _, name := range deltaTypes {
		gen := generators[name]
		t.Run(name, func(t *testing.T) {
			for i := 0; i < 80; i++ {
				base := gen(r)
				recv := MustMerge(base, gen(r)) // base ⊑ recv by construction
				delta, err := recv.(DeltaState).Delta(base)
				if err != nil {
					t.Fatalf("delta: %v (base=%v recv=%v)", err, base, recv)
				}
				if eq, err := Equivalent(MustMerge(base, delta), recv); err != nil || !eq {
					t.Fatalf("base ⊔ delta ≢ recv: base=%v delta=%v recv=%v (err=%v)", base, delta, recv, err)
				}
				// Any state dominating base absorbs the delta soundly.
				ahead := MustMerge(base, gen(r))
				if le, err := recv.Compare(MustMerge(ahead, delta)); err != nil || !le {
					t.Fatalf("recv !⊑ ahead ⊔ delta (err=%v)", err)
				}
				raw, err := Marshal(delta)
				if err != nil {
					t.Fatal(err)
				}
				back, err := Unmarshal(raw)
				if err != nil {
					t.Fatal(err)
				}
				if eq, err := Equivalent(delta, back); err != nil || !eq {
					t.Fatalf("delta did not round-trip: %v vs %v (err=%v)", delta, back, err)
				}
			}
		})
	}
}

// TestDeltaRejectsNonDominatedBase: a baseline the receiver does not
// dominate must be refused — the protocol falls back to full state rather
// than shipping a lossy delta.
func TestDeltaRejectsNonDominatedBase(t *testing.T) {
	recv := NewGCounter().Inc("a", 1)
	base := NewGCounter().Inc("b", 5)
	if _, err := recv.Delta(base); err == nil {
		t.Fatal("gcounter delta accepted a non-dominated base")
	}
	pn := NewPNCounter().Inc("a", 1)
	pnBase := NewPNCounter().Dec("b", 2)
	if _, err := pn.Delta(pnBase); err == nil {
		t.Fatal("pncounter delta accepted a non-dominated base")
	}
	or := NewORSet().Add("x", "a", 1)
	orBase := NewORSet().Add("y", "b", 1)
	if _, err := or.Delta(orBase); err == nil {
		t.Fatal("orset delta accepted a non-dominated base")
	}
	if _, err := recv.Delta(NewORSet()); !errors.Is(err, ErrTypeMismatch) {
		t.Fatalf("cross-type delta error = %v, want ErrTypeMismatch", err)
	}
}

func TestDeltaSmallOnConvergedORSet(t *testing.T) {
	// A 1000-element set that gains one element must produce a delta whose
	// encoding is orders of magnitude smaller than the full state — the
	// bandwidth claim the bytes figure quantifies.
	s := NewORSet()
	for i := 0; i < 1000; i++ {
		s = s.Add(fmt.Sprintf("elem-%04d", i), "n1", uint64(i))
	}
	grown := s.Add("extra", "n1", 2000)
	delta, err := grown.Delta(s)
	if err != nil {
		t.Fatal(err)
	}
	full, err := Marshal(grown)
	if err != nil {
		t.Fatal(err)
	}
	small, err := Marshal(delta)
	if err != nil {
		t.Fatal(err)
	}
	if len(small)*100 > len(full) {
		t.Fatalf("delta %dB not ≪ full %dB", len(small), len(full))
	}
}

// FuzzDigestEquivalence fuzzes the digest ⇔ equivalence property across
// the registry from seed-generated states, including the pair a ⊔ b and
// b ⊔ a, which are always equivalent.
func FuzzDigestEquivalence(f *testing.F) {
	f.Add(uint8(0), int64(1), int64(2))
	f.Add(uint8(5), int64(42), int64(42))
	f.Add(uint8(9), int64(-3), int64(8))

	names := Names()
	f.Fuzz(func(t *testing.T, typeIdx uint8, seedA, seedB int64) {
		name := names[int(typeIdx)%len(names)]
		gen := generators[name]
		a := gen(rand.New(rand.NewSource(seedA)))
		b := gen(rand.New(rand.NewSource(seedB)))
		da, err := DigestOf(a)
		if err != nil {
			t.Fatal(err)
		}
		db, err := DigestOf(b)
		if err != nil {
			t.Fatal(err)
		}
		eq, err := Equivalent(a, b)
		if err != nil {
			t.Fatal(err)
		}
		if eq != (da == db) {
			t.Fatalf("%s: equivalent=%t digest-equal=%t: %v vs %v", name, eq, da == db, a, b)
		}
		dab, err := DigestOf(MustMerge(a, b))
		if err != nil {
			t.Fatal(err)
		}
		dba, err := DigestOf(MustMerge(b, a))
		if err != nil {
			t.Fatal(err)
		}
		if dab != dba {
			t.Fatalf("%s: a ⊔ b and b ⊔ a digest differently: %v vs %v", name, a, b)
		}
	})
}
