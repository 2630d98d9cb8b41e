package crdt

import (
	"testing"
)

func TestGCounterBasics(t *testing.T) {
	c := NewGCounter()
	if got := c.Value(); got != 0 {
		t.Fatalf("fresh counter value = %d, want 0", got)
	}
	c = c.Inc("n1", 3).Inc("n2", 4).Inc("n1", 1)
	if got := c.Value(); got != 8 {
		t.Fatalf("value = %d, want 8", got)
	}
	if got := c.Slot("n1"); got != 4 {
		t.Fatalf("slot n1 = %d, want 4", got)
	}
	if got := c.Slot("unknown"); got != 0 {
		t.Fatalf("slot unknown = %d, want 0", got)
	}
}

func TestGCounterIncDoesNotMutate(t *testing.T) {
	a := NewGCounter().Inc("n1", 1)
	_ = a.Inc("n1", 10)
	if got := a.Value(); got != 1 {
		t.Fatalf("Inc mutated receiver: value = %d, want 1", got)
	}
}

func TestGCounterMergeTakesSlotMax(t *testing.T) {
	a := NewGCounter().Inc("n1", 5).Inc("n2", 1)
	b := NewGCounter().Inc("n1", 3).Inc("n3", 7)
	m := MustMerge(a, b).(*GCounter)
	want := map[string]uint64{"n1": 5, "n2": 1, "n3": 7}
	for rep, w := range want {
		if got := m.Slot(rep); got != w {
			t.Errorf("slot %s = %d, want %d", rep, got, w)
		}
	}
	if got := m.Value(); got != 13 {
		t.Fatalf("value = %d, want 13", got)
	}
}

func TestGCounterIncDelta(t *testing.T) {
	c := NewGCounter().Inc("n1", 4)
	d := c.IncDelta("n1", 2)
	// The delta carries only the mutated slot, at its post-increment value.
	if got := d.Slot("n1"); got != 6 {
		t.Fatalf("delta slot = %d, want 6", got)
	}
	if len(d.slots) != 1 {
		t.Fatalf("delta has %d slots, want 1", len(d.slots))
	}
	// Merging the delta equals applying the full increment.
	full := c.Inc("n1", 2)
	merged := MustMerge(c, d)
	if !mustEquivalent(t, merged, full) {
		t.Fatalf("merge of delta %v != full update %v", merged, full)
	}
}

func TestPNCounterIncDec(t *testing.T) {
	c := NewPNCounter().Inc("n1", 10).Dec("n2", 3).Dec("n1", 2)
	if got := c.Value(); got != 5 {
		t.Fatalf("value = %d, want 5", got)
	}
	// Merge with a sibling that saw different ops.
	o := NewPNCounter().Inc("n3", 1)
	m := MustMerge(c, o).(*PNCounter)
	if got := m.Value(); got != 6 {
		t.Fatalf("merged value = %d, want 6", got)
	}
}

func TestPNCounterCanGoNegative(t *testing.T) {
	c := NewPNCounter().Dec("n1", 7)
	if got := c.Value(); got != -7 {
		t.Fatalf("value = %d, want -7", got)
	}
}

func TestLWWRegisterLastWriteWins(t *testing.T) {
	r := NewLWWRegister().Set("a", 1, "n1").Set("b", 3, "n2").Set("c", 2, "n1")
	v, ts, actor := r.Value()
	if v != "b" || ts != 3 || actor != "n2" {
		t.Fatalf("value = %q@%d/%s, want b@3/n2", v, ts, actor)
	}
}

func TestLWWRegisterTieBreaksOnActor(t *testing.T) {
	a := NewLWWRegister().Set("from-a", 5, "n1")
	b := NewLWWRegister().Set("from-b", 5, "n2")
	m1 := MustMerge(a, b).(*LWWRegister)
	m2 := MustMerge(b, a).(*LWWRegister)
	v1, _, _ := m1.Value()
	v2, _, _ := m2.Value()
	if v1 != v2 {
		t.Fatalf("merge not commutative under stamp tie: %q vs %q", v1, v2)
	}
	if v1 != "from-b" { // n2 > n1 lexicographically
		t.Fatalf("tie should resolve to higher actor, got %q", v1)
	}
}

func TestORSetAddWins(t *testing.T) {
	// Replica A adds x; replica B (having observed the add) removes x while
	// A concurrently re-adds it with a fresh tag. Add wins.
	base := NewORSet().Add("x", "A", 1)
	removed := base.Remove("x")
	readded := base.Add("x", "A", 2)
	m := MustMerge(removed, readded).(*ORSet)
	if !m.Contains("x") {
		t.Fatal("concurrent add should win over remove")
	}
	// Removing after observing both tags kills it.
	m2 := m.Remove("x")
	if m2.Contains("x") {
		t.Fatal("remove of all observed tags should delete element")
	}
}

func TestORSetRemoveOnlyObservedTags(t *testing.T) {
	a := NewORSet().Add("x", "A", 1)
	b := NewORSet().Add("x", "B", 1)
	// a removes having seen only its own tag.
	aRemoved := a.Remove("x")
	m := MustMerge(aRemoved, b).(*ORSet)
	if !m.Contains("x") {
		t.Fatal("unobserved tag should survive the remove")
	}
}

// TestCounterRegisterMergeAllocs: like TestORSetAllocs, a Merge that
// learns nothing allocates nothing and returns the receiver itself, and a
// Merge with a dominating operand returns that operand — the acceptor
// tells a payload change by pointer.
func TestCounterRegisterMergeAllocs(t *testing.T) {
	for _, tc := range []struct {
		name             string
		s, dominated, up State
	}{
		{"g-counter", NewGCounter().Inc("n1", 3).Inc("n2", 1), NewGCounter().Inc("n1", 2), NewGCounter().Inc("n1", 3).Inc("n2", 2)},
		{"pn-counter", NewPNCounter().Inc("n1", 3).Dec("n2", 1), NewPNCounter().Inc("n1", 3), NewPNCounter().Inc("n1", 3).Dec("n2", 1).Dec("n3", 1)},
		{"lww-register", NewLWWRegister().Set("b", 2, "n1"), NewLWWRegister().Set("a", 1, "n2"), NewLWWRegister().Set("c", 3, "n1")},
	} {
		for _, other := range []State{tc.dominated, tc.s} {
			if got := testing.AllocsPerRun(50, func() { _, _ = tc.s.Merge(other) }); got != 0 {
				t.Errorf("%s: dominated or self Merge does %.0f allocs/op, want 0", tc.name, got)
			}
			if m, _ := tc.s.Merge(other); m != tc.s {
				t.Errorf("%s: Merge of a dominated state did not return the receiver itself", tc.name)
			}
		}
		if m, _ := tc.s.Merge(tc.up); m != tc.up {
			t.Errorf("%s: Merge with a dominating state did not return it", tc.name)
		}
	}
}

func TestRegistryNewUnknownType(t *testing.T) {
	if _, err := New("definitely-not-registered"); err == nil {
		t.Fatal("New of unknown type should fail")
	}
}
