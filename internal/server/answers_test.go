package server

import (
	"bytes"
	"fmt"
	"testing"

	"crdtsmr/internal/crdt"
)

// TestAnswerMemo: the memo keeps the last answerMemoSize states by
// digest, and answers a delta only against a state it holds that the
// learned state dominates, for a type that has deltas.
func TestAnswerMemo(t *testing.T) {
	var m answerMemo
	states := make([]*crdt.ORSet, answerMemoSize+1)
	digests := make([]crdt.Digest, len(states))
	s := crdt.NewORSet()
	for i := range states {
		s = s.Add(fmt.Sprintf("elem-%d", i), "n1", uint64(i+1))
		states[i] = s
		d, err := crdt.DigestOf(s)
		if err != nil {
			t.Fatal(err)
		}
		digests[i] = d
		m.add(d, s)
		m.add(d, s) // a repeat takes no second entry
	}
	if m.lookup(digests[0]) != nil {
		t.Error("the oldest state outlived answerMemoSize newer ones")
	}
	for i := 1; i < len(states); i++ {
		if m.lookup(digests[i]) != crdt.State(states[i]) {
			t.Errorf("state %d is not held by its digest", i)
		}
	}

	learned := states[len(states)-1].Add("elem-new", "n2", 1)
	d := m.deltaAnswer(learned, digests[1])
	if d == nil {
		t.Fatal("no delta against a held state the learned state dominates")
	}
	joined, err := states[1].Merge(d)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := mustMarshal(t, joined), mustMarshal(t, learned); !bytes.Equal(got, want) {
		t.Error("the held state joined with the delta is not the learned state")
	}
	if m.deltaAnswer(states[2], digests[3]) != nil {
		t.Error("a delta against a state the learned state does not dominate")
	}
	if m.deltaAnswer(learned, digests[0]) != nil || m.deltaAnswer(learned, crdt.Digest{}) != nil {
		t.Error("a delta against a state the memo does not hold")
	}
	reg := crdt.NewLWWRegister().Set("v", 1, "n1")
	rd, err := crdt.DigestOf(reg)
	if err != nil {
		t.Fatal(err)
	}
	m.add(rd, reg)
	if m.deltaAnswer(crdt.NewLWWRegister().Set("w", 2, "n1"), rd) != nil {
		t.Error("a delta for a type without join decomposition")
	}
}

func mustMarshal(t *testing.T, s crdt.State) []byte {
	t.Helper()
	raw, err := crdt.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}
