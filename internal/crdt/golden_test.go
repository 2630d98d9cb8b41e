package crdt

import (
	"encoding/hex"
	"testing"
)

// The golden scripts below are fixed mutate/merge/delta histories for the
// served payload types other than the or-set (see TestORSetGoldenBytes).
// Their fixtures are Marshal of each result: the replica wire, digests and
// snapshot files all carry these bytes, so any change to them is a format
// change, not a refactor.

// goldenGCounterScript increments under replica IDs that sort differently
// from their insertion order, merges in both directions, and takes a delta
// and an IncDelta.
func goldenGCounterScript() (final, delta, incDelta State) {
	a := NewGCounter().Inc("n3", 7).Inc("n1", 2).Inc("n10", 300)
	b := NewGCounter().Inc("n2", 1).Inc("n1", 5).Inc("", 1)
	m := MustMerge(a, b).(*GCounter).Inc("n2", 128)
	m = MustMerge(b.Inc("n3", 9), m).(*GCounter)
	d, err := m.Delta(a)
	if err != nil {
		panic(err)
	}
	return m, d, m.IncDelta("n10", 1<<20)
}

// goldenPNCounterScript mixes increments and decrements on shared and
// disjoint replicas so that both component maps are non-trivial.
func goldenPNCounterScript() (final, delta State) {
	a := NewPNCounter().Inc("n1", 10).Dec("n2", 3).Dec("n1", 200)
	b := NewPNCounter().Dec("n3", 1).Inc("n2", 4).Inc("n1", 6)
	m := MustMerge(a, b).(*PNCounter).Dec("n2", 5).Inc("n3", 1)
	m = MustMerge(b.Dec("n1", 7), m).(*PNCounter)
	d, err := m.Delta(b)
	if err != nil {
		panic(err)
	}
	return m, d
}

// goldenLWWRegisterScript covers a stale write, an actor tiebreak on equal
// timestamps and the value tiebreak on an equal stamp, merged both ways.
func goldenLWWRegisterScript() (final, tie State) {
	a := NewLWWRegister().Set("first", 3, "n1").Set("stale", 2, "n2")
	b := NewLWWRegister().Set("second", 3, "n2")
	m := MustMerge(a, b).(*LWWRegister).Set("", 1, "n3")
	m = MustMerge(NewLWWRegister().Set("third ✓", 300, "n1"), m).(*LWWRegister)
	x := NewLWWRegister().Set("apple", 9, "n1")
	y := NewLWWRegister().Set("pear", 9, "n1")
	return m, MustMerge(y, x)
}

func checkGolden(t *testing.T, what string, s State, want string) {
	t.Helper()
	if got := hex.EncodeToString(mustMarshal(t, s)); got != want {
		t.Errorf("%s encoding changed:\n got %s\nwant %s", what, got, want)
	}
}

func TestGCounterGoldenBytes(t *testing.T) {
	final, delta, incDelta := goldenGCounterScript()
	checkGolden(t, "final state", final, goldenGCounterFinal)
	checkGolden(t, "delta", delta, goldenGCounterDelta)
	checkGolden(t, "inc delta", incDelta, goldenGCounterIncDelta)
	if got := final.(*GCounter).Value(); got != 444 {
		t.Errorf("value = %d, want 444", got)
	}
}

func TestPNCounterGoldenBytes(t *testing.T) {
	final, delta := goldenPNCounterScript()
	checkGolden(t, "final state", final, goldenPNCounterFinal)
	checkGolden(t, "delta", delta, goldenPNCounterDelta)
	if got := final.(*PNCounter).Value(); got != -194 {
		t.Errorf("value = %d, want -194", got)
	}
}

func TestLWWRegisterGoldenBytes(t *testing.T) {
	final, tie := goldenLWWRegisterScript()
	checkGolden(t, "final state", final, goldenLWWRegisterFinal)
	checkGolden(t, "equal-stamp merge", tie, goldenLWWRegisterTie)
	if v, ts, actor := final.(*LWWRegister).Value(); v != "third ✓" || ts != 300 || actor != "n1" {
		t.Errorf("value = %q@%d/%s, want \"third ✓\"@300/n1", v, ts, actor)
	}
}

// Printed at commit 9c2acde, when the registry still held eleven types.
const (
	goldenGCounterFinal    = "09672d636f756e74657216050001026e3105036e3130ac02026e328101026e3309"
	goldenGCounterDelta    = "09672d636f756e74657210040001026e3105026e328101026e3309"
	goldenGCounterIncDelta = "09672d636f756e7465720801036e3130ac8240"
	goldenPNCounterFinal   = "0a706e2d636f756e7465721b03026e310a026e3204026e330103026e31c801026e3208026e3301"
	goldenPNCounterDelta   = "0a706e2d636f756e7465721302026e310a026e330102026e31c801026e3208"
	goldenLWWRegisterFinal = "0c6c77772d72656769737465720f09746869726420e29c93ac02026e31"
	goldenLWWRegisterTie   = "0c6c77772d726567697374657209047065617209026e31"
)
