package core

import (
	"fmt"
	"testing"

	"crdtsmr/internal/crdt"
	"crdtsmr/internal/transport"
)

// TestMessageOverheadConstant checks the paper's abstract-level claim that
// "the message size overhead for coordination consists of a single counter
// per message": the encoded size of every protocol message minus its
// payload state must stay (small and) constant as the CRDT grows.
func TestMessageOverheadConstant(t *testing.T) {
	overheadFor := func(slots int) int {
		c := crdt.NewGCounter()
		for i := 0; i < slots; i++ {
			c = c.Inc(fmt.Sprintf("replica-%05d", i), uint64(i+1))
		}
		stateBytes, err := crdt.Marshal(c)
		if err != nil {
			t.Fatal(err)
		}
		m := &message{
			Type:    msgPrepare,
			Req:     1 << 40,
			Attempt: 3,
			Round:   Round{Number: 1 << 30, ID: RoundID{Proposer: "some-proposer", Seq: 1 << 20}},
			State:   c,
		}
		raw, err := m.encode()
		if err != nil {
			t.Fatal(err)
		}
		return len(raw) - len(stateBytes)
	}

	small := overheadFor(1)
	large := overheadFor(10000)
	// The only size-dependent bytes are the payload's uvarint length
	// prefix (framing, ≤ 9 bytes), not coordination state.
	if large-small > 9 {
		t.Fatalf("coordination overhead grew with the state: %dB at 1 slot vs %dB at 10k slots", small, large)
	}
	if small > 64 {
		t.Fatalf("coordination overhead is %dB, expected a few dozen bytes (a round + ids)", small)
	}
}

// TestEventualLivenessAfterFiniteUpdates exercises §3.5: with a finite
// number of updates, every query eventually learns a state, because each
// failed incremental prepare folds at least one more acceptor's updates
// into the retry seed. We create maximal interference — every acceptor's
// state diverges and rounds are scrambled — then run a query with no
// further updates and require completion without any runtime timer.
func TestEventualLivenessAfterFiniteUpdates(t *testing.T) {
	for seed := int64(0); seed < 30; seed++ {
		fabric := transport.NewFabric(seed)
		members := []transport.NodeID{"n1", "n2", "n3", "n4", "n5"}
		reps := make(map[transport.NodeID]*Replica, len(members))
		conns := make(map[transport.NodeID]*transport.FabricConn, len(members))
		flush := func(id transport.NodeID) {
			for _, e := range reps[id].TakeOutbox() {
				conns[id].Send(e.To, e.Payload)
			}
		}
		for _, id := range members {
			rep, err := NewReplica(id, members, crdt.NewGCounter(), DefaultOptions())
			if err != nil {
				t.Fatal(err)
			}
			reps[id] = rep
			id := id
			conns[id] = fabric.Join(id, func(from transport.NodeID, payload []byte) {
				reps[id].Deliver(from, payload)
				flush(id)
			})
		}

		// Interference phase: updates at every node, queries at every node,
		// messages delivered in random order but only partially (half the
		// traffic stalls in the pool to maximize divergence).
		for _, id := range members {
			slot := string(id)
			if _, err := reps[id].SubmitUpdate(func(s crdt.State) (crdt.State, error) {
				return s.(*crdt.GCounter).Inc(slot, 1), nil
			}, nil); err != nil {
				t.Fatal(err)
			}
			reps[id].SubmitQuery(nil)
			flush(id)
		}
		fabric.Drain(10) // deliver only a few messages, leaving chaos behind

		// The updates are finite (none from here on). A fresh query must
		// complete purely by message-driven retries during the drain.
		done := false
		reps["n1"].SubmitQuery(func(s crdt.State, stats QueryStats, err error) {
			if err != nil {
				t.Fatalf("seed %d: query failed: %v", seed, err)
			}
			done = true
		})
		flush("n1")
		fabric.Drain(100000)
		if !done {
			t.Fatalf("seed %d: query never learned a state (liveness)", seed)
		}
	}
}

// TestUpdateStabilityOrdering drives Theorem 3.9's scenario directly: u1
// completes, then u2 is submitted; any state that includes u2 must include
// u1. With a G-Counter we verify via slots: no learned state may contain
// u2's slot value without u1's.
func TestUpdateStabilityOrdering(t *testing.T) {
	nw := newNet(t, 3, DefaultOptions())
	r1, r2 := nw.reps["n1"], nw.reps["n2"]

	// u1 at n1 completes against quorum {n1, n2}; n3 never hears of it.
	u1Done := false
	if _, err := r1.SubmitUpdate(incAt(r1), func(UpdateStats, error) { u1Done = true }); err != nil {
		t.Fatal(err)
	}
	nw.pump()
	nw.deliver(func(e env) bool { return e.typ == msgMerge && e.to == "n2" })
	nw.deliver(ofType(msgMerged))
	if !u1Done {
		t.Fatal("u1 incomplete")
	}
	nw.drop(ofType(msgMerge))

	// u2 at n2 (submitted after u1 completed).
	if _, err := r2.SubmitUpdate(incAt(r2), nil); err != nil {
		t.Fatal(err)
	}
	nw.pump()
	nw.drain()

	// Every learned state that includes u2 must include u1, at every node.
	for _, rep := range nw.reps {
		var got crdt.State
		rep.SubmitQuery(func(s crdt.State, st QueryStats, err error) {
			if err != nil {
				t.Fatal(err)
			}
			got = s
		})
		nw.pump()
		nw.drain()
		c := got.(*crdt.GCounter)
		if c.Slot("n2") > 0 && c.Slot("n1") == 0 {
			t.Fatalf("update stability violated at %s: u2 visible without u1 (%v)", rep.ID(), c)
		}
	}
}
