package server

import (
	"sync"

	"crdtsmr/internal/crdt"
)

// answerMemoSize caps the states a Server keeps to answer queries by
// delta. An entry shares an immutable state the replica already built,
// and costs what the replica no longer holds of it: ~40 KB for a
// superseded version of a 1,000-element or-set. 8 entries cover two or
// three recent versions of each large key a server is home to in the
// large-set workload (8 live keys over 3 servers): ~4 % of its reads
// ship their state whole, against ~3 % with 16 entries, which pinned
// ~1 MB more of the benchmark's heap.
const answerMemoSize = 8

// answerMemo remembers the large states a server answered queries with,
// by digest: the states its clients may hold and name as a query's have
// (docs/PROTOCOL.md §2.4). Holding the state a have names is what lets a
// server answer with the learned state's delta against it. Entries are
// replaced oldest first.
type answerMemo struct {
	mu      sync.Mutex
	entries [answerMemoSize]answered
	next    int // the entry the next add replaces
}

type answered struct {
	digest crdt.Digest
	state  crdt.State
}

// add records that st, whose digest is d, went out in an answer.
func (m *answerMemo) add(d crdt.Digest, st crdt.State) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, e := range m.entries {
		if e.digest == d {
			return
		}
	}
	m.entries[m.next] = answered{digest: d, state: st}
	m.next = (m.next + 1) % answerMemoSize
}

// lookup returns the state answered under digest d, or nil.
func (m *answerMemo) lookup(d crdt.Digest) crdt.State {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, e := range m.entries {
		if e.digest == d {
			return e.state
		}
	}
	return nil
}

// deltaAnswer returns learned's delta against the state have names, when
// this server answered with that state and learned dominates it (Delta
// proves base ⊑ learned by succeeding), or nil.
func (m *answerMemo) deltaAnswer(learned crdt.State, have crdt.Digest) crdt.State {
	ds, ok := learned.(crdt.DeltaState)
	if !ok || have.IsZero() {
		return nil
	}
	base := m.lookup(have)
	if base == nil {
		return nil
	}
	d, err := ds.Delta(base)
	if err != nil {
		return nil
	}
	return d
}
