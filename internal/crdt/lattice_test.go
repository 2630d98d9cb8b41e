package crdt

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

// genState produces a pseudo-random state of one payload type from r.
type genState func(r *rand.Rand) State

// generators drives the lattice-law and codec property tests across every
// payload type shipped by the package. Counter increments include 0, the
// amount a served `inc <key> 0` passes through.
var generators = map[string]genState{
	TypeGCounter: func(r *rand.Rand) State {
		c := NewGCounter()
		for i := 0; i < r.Intn(5); i++ {
			c = c.Inc(fmt.Sprintf("r%d", r.Intn(4)), uint64(r.Intn(11)))
		}
		return c
	},
	TypePNCounter: func(r *rand.Rand) State {
		c := NewPNCounter()
		for i := 0; i < r.Intn(5); i++ {
			rep := fmt.Sprintf("r%d", r.Intn(4))
			if r.Intn(2) == 0 {
				c = c.Inc(rep, uint64(r.Intn(11)))
			} else {
				c = c.Dec(rep, uint64(r.Intn(11)))
			}
		}
		return c
	},
	TypeLWWRegister: func(r *rand.Rand) State {
		l := NewLWWRegister()
		for i := 0; i < r.Intn(4); i++ {
			l = l.Set(fmt.Sprintf("v%d", r.Intn(8)), uint64(r.Intn(20)), fmt.Sprintf("a%d", r.Intn(3)))
		}
		return l
	},
	// One or-set in three spans several chunks (~16 items each), with
	// removes, so that joins, comparisons and digests cross chunk cuts.
	TypeORSet: func(r *rand.Rand) State {
		s := NewORSet()
		ops, pool := r.Intn(6), 10
		if r.Intn(3) == 0 {
			ops, pool = 40+r.Intn(160), 120
		}
		for i := 0; i < ops; i++ {
			e := fmt.Sprintf("e%d", r.Intn(pool))
			if r.Intn(3) == 0 {
				s = s.Remove(e)
			} else {
				s = s.Add(e, fmt.Sprintf("a%d", r.Intn(3)), uint64(r.Intn(100)))
			}
		}
		return s
	},
}

func mustEquivalent(t *testing.T, a, b State) bool {
	t.Helper()
	eq, err := Equivalent(a, b)
	if err != nil {
		t.Fatalf("Equivalent(%v, %v): %v", a, b, err)
	}
	return eq
}

// TestLatticeLaws checks the join-semilattice laws of Definitions 1-3 of
// the paper for every payload type: idempotence, commutativity,
// associativity, that the join is an upper bound, and that Compare is
// consistent with Merge (a ⊑ b ⇔ a ⊔ b ≡ b).
func TestLatticeLaws(t *testing.T) {
	for name, gen := range generators {
		t.Run(name, func(t *testing.T) {
			r := rand.New(rand.NewSource(42))
			for i := 0; i < 300; i++ {
				a, b, c := gen(r), gen(r), gen(r)

				// Idempotence: a ⊔ a ≡ a.
				if !mustEquivalent(t, MustMerge(a, a), a) {
					t.Fatalf("idempotence violated: %v", a)
				}
				// Commutativity: a ⊔ b ≡ b ⊔ a.
				if !mustEquivalent(t, MustMerge(a, b), MustMerge(b, a)) {
					t.Fatalf("commutativity violated: %v, %v", a, b)
				}
				// Associativity: (a ⊔ b) ⊔ c ≡ a ⊔ (b ⊔ c).
				if !mustEquivalent(t, MustMerge(MustMerge(a, b), c), MustMerge(a, MustMerge(b, c))) {
					t.Fatalf("associativity violated: %v, %v, %v", a, b, c)
				}
				// Upper bound: a ⊑ a ⊔ b and b ⊑ a ⊔ b.
				ab := MustMerge(a, b)
				if le, _ := a.Compare(ab); !le {
					t.Fatalf("a not below a⊔b: %v vs %v", a, ab)
				}
				if le, _ := b.Compare(ab); !le {
					t.Fatalf("b not below a⊔b: %v vs %v", b, ab)
				}
				// Order/join consistency: a ⊑ b ⇔ a ⊔ b ≡ b.
				le, err := a.Compare(b)
				if err != nil {
					t.Fatal(err)
				}
				if le != mustEquivalent(t, ab, b) {
					t.Fatalf("compare/merge inconsistency: a=%v b=%v a⊑b=%t a⊔b=%v", a, b, le, ab)
				}
			}
		})
	}
}

// TestCompareReflexiveTransitive checks that ⊑ is a partial order on
// randomly generated states.
func TestCompareReflexiveTransitive(t *testing.T) {
	for name, gen := range generators {
		t.Run(name, func(t *testing.T) {
			r := rand.New(rand.NewSource(7))
			for i := 0; i < 200; i++ {
				a := gen(r)
				if le, _ := a.Compare(a); !le {
					t.Fatalf("reflexivity violated: %v", a)
				}
				// Build a guaranteed chain a ⊑ ab ⊑ abc and check transitivity
				// via the direct comparison a ⊑ abc.
				ab := MustMerge(a, gen(r))
				abc := MustMerge(ab, gen(r))
				if le, _ := a.Compare(abc); !le {
					t.Fatalf("transitivity violated: %v !⊑ %v", a, abc)
				}
			}
		})
	}
}

// TestCodecRoundTrip checks that Marshal/Unmarshal preserve equivalence for
// every payload type and that the encoding is deterministic (equal states
// encode to identical bytes — required so acceptors can compare encoded
// payloads cheaply and tests can diff states).
func TestCodecRoundTrip(t *testing.T) {
	for name, gen := range generators {
		t.Run(name, func(t *testing.T) {
			r := rand.New(rand.NewSource(99))
			for i := 0; i < 200; i++ {
				s := gen(r)
				raw, err := Marshal(s)
				if err != nil {
					t.Fatalf("Marshal: %v", err)
				}
				back, err := Unmarshal(raw)
				if err != nil {
					t.Fatalf("Unmarshal: %v", err)
				}
				if back.TypeName() != s.TypeName() {
					t.Fatalf("type changed: %s -> %s", s.TypeName(), back.TypeName())
				}
				if !mustEquivalent(t, s, back) {
					t.Fatalf("round trip not equivalent: %v vs %v", s, back)
				}
				raw2, err := Marshal(back)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(raw, raw2) {
					t.Fatalf("non-deterministic encoding for %s", name)
				}
			}
		})
	}
}

// TestUnmarshalRejectsGarbage checks the codecs fail cleanly on corrupt and
// truncated inputs rather than decoding nonsense.
func TestUnmarshalRejectsGarbage(t *testing.T) {
	if _, err := Unmarshal(nil); err == nil {
		t.Fatal("Unmarshal(nil) succeeded")
	}
	if _, err := Unmarshal([]byte{0xff, 0xff, 0xff}); err == nil {
		t.Fatal("Unmarshal(garbage) succeeded")
	}
	// Valid envelope, unregistered type.
	var e encBuf
	e.str("no-such-type")
	e.str("")
	if _, err := Unmarshal(e.b); err == nil {
		t.Fatal("Unmarshal of unregistered type succeeded")
	}
	// Truncated payloads of every registered type.
	r := rand.New(rand.NewSource(3))
	for name, gen := range generators {
		raw, err := Marshal(gen(r))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for cut := 1; cut < len(raw); cut += 3 {
			if s, err := Unmarshal(raw[:cut]); err == nil {
				// A shorter prefix may occasionally parse (e.g. an empty
				// payload); it must at least be a valid state, not junk.
				if s == nil {
					t.Fatalf("%s: truncated decode returned nil state", name)
				}
			}
		}
	}
}

// TestMergeTypeMismatch checks that merging or comparing different payload
// types reports ErrTypeMismatch for every pair of distinct types.
func TestMergeTypeMismatch(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	states := make([]State, 0, len(generators))
	for _, gen := range generators {
		states = append(states, gen(r))
	}
	for _, a := range states {
		for _, b := range states {
			if a.TypeName() == b.TypeName() {
				continue
			}
			if _, err := a.Merge(b); err == nil {
				t.Fatalf("Merge(%s, %s) did not fail", a.TypeName(), b.TypeName())
			}
			if _, err := a.Compare(b); err == nil {
				t.Fatalf("Compare(%s, %s) did not fail", a.TypeName(), b.TypeName())
			}
		}
	}
}

// TestQuickGCounterMergeNeverLoses uses testing/quick to check that merging
// any interleaving of per-replica increments preserves every replica's
// contribution — the core convergence argument of Algorithm 1.
func TestQuickGCounterMergeNeverLoses(t *testing.T) {
	f := func(incsA, incsB []uint8) bool {
		a, b := NewGCounter(), NewGCounter()
		var sumA, sumB uint64
		for _, n := range incsA {
			a = a.Inc("A", uint64(n))
			sumA += uint64(n)
		}
		for _, n := range incsB {
			b = b.Inc("B", uint64(n))
			sumB += uint64(n)
		}
		m := MustMerge(a, b).(*GCounter)
		return m.Value() == sumA+sumB && m.Slot("A") == sumA && m.Slot("B") == sumB
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickMergeAllOrderInsensitive uses testing/quick to check that the
// LUB of a set of states is independent of fold order — the property that
// lets proposers compute ⊔S̆ from ACK payloads in arrival order.
func TestQuickMergeAllOrderInsensitive(t *testing.T) {
	f := func(seed int64, perm []int) bool {
		r := rand.New(rand.NewSource(seed))
		states := make([]State, 5)
		for i := range states {
			states[i] = generators[TypeORSet](r)
		}
		forward, err := MergeAll(states...)
		if err != nil {
			return false
		}
		shuffled := make([]State, len(states))
		copy(shuffled, states)
		r2 := rand.New(rand.NewSource(seed + 1))
		r2.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		backward, err := MergeAll(shuffled...)
		if err != nil {
			return false
		}
		eq, err := Equivalent(forward, backward)
		return err == nil && eq
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickUpdatesMonotone uses testing/quick to check Definition 3's
// requirement s ⊑ u(s) for the mutators used by the replication protocol.
func TestQuickUpdatesMonotone(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		for name, gen := range generators {
			before := gen(r)
			after := gen(r)
			merged := MustMerge(before, after)
			le, err := before.Compare(merged)
			if err != nil || !le {
				t.Logf("%s: %v not ⊑ %v", name, before, merged)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestMergeAllEmpty(t *testing.T) {
	if _, err := MergeAll(); err == nil {
		t.Fatal("MergeAll() of nothing should fail")
	}
}

func TestComparableIncomparableStates(t *testing.T) {
	a := NewGCounter().Inc("A", 1)
	b := NewGCounter().Inc("B", 1)
	ok, err := Comparable(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatalf("%v and %v should be incomparable", a, b)
	}
	ok, err = Comparable(a, MustMerge(a, b))
	if err != nil || !ok {
		t.Fatalf("a should be comparable with a⊔b (err=%v)", err)
	}
}
