package core

import (
	"testing"

	"crdtsmr/internal/crdt"
	"crdtsmr/internal/transport"
)

func newSnapReplica(t *testing.T, id transport.NodeID) *Replica {
	t.Helper()
	members := []transport.NodeID{"n1", "n2", "n3"}
	rep, err := NewReplica(id, members, crdt.NewGCounter(), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// TestSnapshotRestoreRoundTrip: a snapshot taken after local activity,
// restored onto a fresh replica, reproduces the durable state exactly —
// payload, learned state, round, and both proposer counters.
func TestSnapshotRestoreRoundTrip(t *testing.T) {
	rep := newSnapReplica(t, "n1")
	if _, err := rep.SubmitUpdate(inc("n1"), nil); err != nil {
		t.Fatal(err)
	}
	if _, err := rep.SubmitUpdate(inc("n1"), nil); err != nil {
		t.Fatal(err)
	}
	// Adopt a concrete round so the snapshot carries more than the write
	// marker.
	fixed := Round{Number: 9, ID: RoundID{Proposer: "n2", Seq: 4}}
	if reply, _, _, err := rep.acc.handlePrepare(fixed, nil); err != nil || reply != msgAck {
		t.Fatalf("prepare: reply=%v err=%v", reply, err)
	}
	snap := rep.Snapshot()

	restored := newSnapReplica(t, "n1")
	if err := restored.Restore(snap); err != nil {
		t.Fatal(err)
	}
	if got := restored.LocalState().(*crdt.GCounter).Value(); got != 2 {
		t.Fatalf("restored payload value = %d, want 2", got)
	}
	if restored.acc.round != snap.Round {
		t.Fatalf("restored round = %v, want %v", restored.acc.round, snap.Round)
	}
	if restored.nextReq != snap.NextReq || restored.nextSeq != snap.NextSeq {
		t.Fatalf("restored counters = (%d,%d), want (%d,%d)",
			restored.nextReq, restored.nextSeq, snap.NextReq, snap.NextSeq)
	}
	eq, err := crdt.Equivalent(restored.learned, snap.Learned)
	if err != nil || !eq {
		t.Fatalf("restored learned state mismatch (eq=%t err=%v)", eq, err)
	}
}

// TestRestoredAcceptorNeverRegressesRound is the recovery safety argument
// as a unit test: an acceptor that promised round 9 before the crash must,
// after Restore, NACK a fixed prepare at any lower round — exactly as the
// pre-crash acceptor would have.
func TestRestoredAcceptorNeverRegressesRound(t *testing.T) {
	rep := newSnapReplica(t, "n1")
	promised := Round{Number: 9, ID: RoundID{Proposer: "n2", Seq: 7}}
	if reply, _, _, err := rep.acc.handlePrepare(promised, nil); err != nil || reply != msgAck {
		t.Fatalf("prepare: reply=%v err=%v", reply, err)
	}
	snap := rep.Snapshot()

	restored := newSnapReplica(t, "n1")
	if err := restored.Restore(snap); err != nil {
		t.Fatal(err)
	}
	lower := Round{Number: 5, ID: RoundID{Proposer: "n3", Seq: 1}}
	reply, round, _, err := restored.acc.handlePrepare(lower, nil)
	if err != nil {
		t.Fatal(err)
	}
	if reply != msgNack {
		t.Fatalf("restored acceptor ACKed round %v below its promised %v", lower, promised)
	}
	if round != promised {
		t.Fatalf("NACK carries round %v, want the promised %v", round, promised)
	}
	// A higher round is still accepted: the restored acceptor is not stuck.
	higher := Round{Number: 12, ID: RoundID{Proposer: "n3", Seq: 2}}
	if reply, _, _, err := restored.acc.handlePrepare(higher, nil); err != nil || reply != msgAck {
		t.Fatalf("higher prepare: reply=%v err=%v", reply, err)
	}
}

// TestRestoreIsMonotone: restoring a stale snapshot onto a replica that
// has already adopted a higher round and a larger payload changes nothing
// — Restore joins, never overwrites.
func TestRestoreIsMonotone(t *testing.T) {
	stale := newSnapReplica(t, "n1")
	if _, err := stale.SubmitUpdate(inc("n1"), nil); err != nil {
		t.Fatal(err)
	}
	snap := stale.Snapshot() // value 1, write-marker round

	rep := newSnapReplica(t, "n1")
	for i := 0; i < 3; i++ {
		if _, err := rep.SubmitUpdate(inc("n1"), nil); err != nil {
			t.Fatal(err)
		}
	}
	high := Round{Number: 20, ID: RoundID{Proposer: "n3", Seq: 9}}
	if reply, _, _, err := rep.acc.handlePrepare(high, nil); err != nil || reply != msgAck {
		t.Fatalf("prepare: reply=%v err=%v", reply, err)
	}
	if err := rep.Restore(snap); err != nil {
		t.Fatal(err)
	}
	if rep.acc.round != high {
		t.Fatalf("stale restore regressed round to %v from %v", rep.acc.round, high)
	}
	if got := rep.LocalState().(*crdt.GCounter).Value(); got != 3 {
		t.Fatalf("stale restore changed payload value to %d", got)
	}
	if rep.nextReq < 3 {
		t.Fatalf("stale restore regressed nextReq to %d", rep.nextReq)
	}
}

// TestRequestIDsNotReissuedAfterRestore: leased reads write no record, so
// the last record predates their IDs; a proposer restored from it must
// still issue above every ID it used before the crash (NextReq is a
// reservation ceiling), or a late reply to a pre-crash request could match
// a new one.
func TestRequestIDsNotReissuedAfterRestore(t *testing.T) {
	nw := newNet(t, 3, DefaultOptions())
	n1 := nw.reps["n1"]
	installLeaseAt(t, nw, n1)
	last, v := n1.Snapshot(), n1.StateVersion() // the last record a runtime wrote
	var maxID uint64
	for i := 0; i < 5; i++ {
		id := n1.SubmitQuery(func(_ crdt.State, st QueryStats, err error) {
			if err != nil || !st.Leased {
				t.Fatalf("read %d: stats %+v err %v, want a leased hit", i, st, err)
			}
		})
		maxID = max(maxID, id)
		nw.pump()
		nw.drain()
		if got := n1.StateVersion(); got != v {
			t.Fatalf("leased read %d moved StateVersion %d -> %d", i, v, got)
		}
	}

	restored := newSnapReplica(t, "n1")
	if err := restored.Restore(last); err != nil {
		t.Fatal(err)
	}
	before := restored.StateVersion()
	next := restored.SubmitQuery(nil)
	if next <= maxID {
		t.Fatalf("restored proposer reissued request ID %d (pre-crash IDs up to %d)", next, maxID)
	}
	// The raised ceiling is a durable transition: its record lands before
	// the PREPARE carrying the new ID leaves.
	if snap := restored.Snapshot(); snap.NextReq < next || restored.StateVersion() <= before {
		t.Fatalf("ceiling %d after issuing %d, version %d -> %d", snap.NextReq, next, before, restored.StateVersion())
	}
}

// TestConvergedLeasedReadIsNotDurable: on a converged group, a leased
// read changes no payload and no round anywhere, so it moves no replica's
// StateVersion — a durable runtime writes no record for it. Below and
// above the transfer size switch, and after the holder's own update.
func TestConvergedLeasedReadIsNotDurable(t *testing.T) {
	for name, s0 := range map[string]func() crdt.State{
		"small": func() crdt.State { return crdt.NewGCounter() },
		"large": largeCounter,
	} {
		t.Run(name, func(t *testing.T) {
			nw := newNetWith(t, 3, DefaultOptions(), s0)
			n1 := nw.reps["n1"]
			installLeaseAt(t, nw, n1)
			if _, err := n1.SubmitUpdate(incAt(n1), nil); err != nil {
				t.Fatal(err)
			}
			nw.pump()
			nw.drain()
			for i := 0; i < 3; i++ {
				versions := map[transport.NodeID]uint64{}
				for id, rep := range nw.reps {
					versions[id] = rep.StateVersion()
				}
				var stats QueryStats
				n1.SubmitQuery(func(_ crdt.State, st QueryStats, err error) {
					if err != nil {
						t.Fatalf("leased read: %v", err)
					}
					stats = st
				})
				nw.pump()
				nw.drain()
				if !stats.Leased {
					t.Fatalf("read %d: stats %+v, want a leased hit", i, stats)
				}
				for id, rep := range nw.reps {
					if got := rep.StateVersion(); got != versions[id] {
						t.Errorf("read %d moved %s's StateVersion %d -> %d", i, id, versions[id], got)
					}
				}
			}
		})
	}
}

// TestLearnedSurvivesRestoreByQuorum: a read's learned state is not a
// durable transition of its own. Ack a read that learns a peer's update,
// crash the reader back to its pre-read record (which holds neither the
// update nor the learned state), and the next read there still returns
// at least the acked state: the quorum that established it is durable.
func TestLearnedSurvivesRestoreByQuorum(t *testing.T) {
	nw := newNet(t, 3, DefaultOptions())
	n1, n2 := nw.reps["n1"], nw.reps["n2"]
	preRead := n1.Snapshot()

	// n2's update reaches n3 only: a quorum without n1.
	if _, err := n2.SubmitUpdate(incAt(n2), nil); err != nil {
		t.Fatal(err)
	}
	nw.pump()
	nw.drop(toNode("n1"))
	nw.drain()

	var acked crdt.State
	n1.SubmitQuery(func(s crdt.State, _ QueryStats, err error) {
		if err != nil {
			t.Fatalf("read: %v", err)
		}
		acked = s
	})
	nw.pump()
	nw.drain()
	if acked == nil || counterValue(t, acked) != 1 {
		t.Fatalf("read acked %v, want the peer's update", acked)
	}
	if counterValue(t, preRead.Learned) != 0 {
		t.Fatal("the pre-read record already holds the acked state")
	}

	restored := newSnapReplica(t, "n1")
	if err := restored.Restore(preRead); err != nil {
		t.Fatal(err)
	}
	nw.reps["n1"] = restored
	var next crdt.State
	restored.SubmitQuery(func(s crdt.State, _ QueryStats, err error) {
		if err != nil {
			t.Fatalf("read after restore: %v", err)
		}
		next = s
	})
	nw.pump()
	nw.drain()
	if next == nil {
		t.Fatal("read after restore did not complete")
	}
	if le, err := acked.Compare(next); err != nil || !le {
		t.Fatalf("read after restore returned %v, below the acked %v", next, acked)
	}
}

// TestRestoredProposerRoundIDsStayFresh: round IDs issued after a restore
// must be distinct from every round the proposer issued before the crash
// (NextSeq persists), or late replies to pre-crash prepares could be
// counted toward post-crash requests carrying the same ID.
func TestRestoredProposerRoundIDsStayFresh(t *testing.T) {
	rep := newSnapReplica(t, "n1")
	for i := 0; i < 4; i++ {
		rep.SubmitQuery(func(crdt.State, QueryStats, error) {})
	}
	preCrashSeq := rep.nextSeq
	if preCrashSeq == 0 {
		t.Fatal("queries issued no rounds")
	}
	snap := rep.Snapshot()

	restored := newSnapReplica(t, "n1")
	if err := restored.Restore(snap); err != nil {
		t.Fatal(err)
	}
	restored.SubmitQuery(func(crdt.State, QueryStats, error) {})
	if restored.nextSeq <= preCrashSeq {
		t.Fatalf("post-restore seq %d does not exceed pre-crash seq %d", restored.nextSeq, preCrashSeq)
	}
}

// TestRestoreRejectsMismatchedPayload: a snapshot of a different payload
// type must be rejected, not merged.
func TestRestoreRejectsMismatchedPayload(t *testing.T) {
	rep := newSnapReplica(t, "n1")
	if err := rep.Restore(Snapshot{State: crdt.NewORSet()}); err == nil {
		t.Fatal("restore accepted an or-set snapshot into a g-counter replica")
	}
	if err := rep.Restore(Snapshot{}); err == nil {
		t.Fatal("restore accepted a nil payload")
	}
}

// TestStateVersionAdvancesOnDurableTransitions: every path that can
// change the snapshot must move StateVersion, so runtimes keyed on it
// never skip a needed write.
func TestStateVersionAdvancesOnDurableTransitions(t *testing.T) {
	rep := newSnapReplica(t, "n1")
	v0 := rep.StateVersion()
	if _, err := rep.SubmitUpdate(inc("n1"), nil); err != nil {
		t.Fatal(err)
	}
	v1 := rep.StateVersion()
	if v1 <= v0 {
		t.Fatalf("update did not advance version: %d -> %d", v0, v1)
	}
	rep.SubmitQuery(func(crdt.State, QueryStats, error) {})
	v2 := rep.StateVersion()
	if v2 <= v1 {
		t.Fatalf("query prepare did not advance version: %d -> %d", v1, v2)
	}

	// A MERGE that brings no new state but clobbers the round adopted by
	// the prepare above still changes the snapshot; its duplicate does not.
	peer := newSnapReplica(t, "n2")
	noop := func(s crdt.State) (crdt.State, error) { return s, nil }
	if _, err := peer.SubmitUpdate(noop, nil); err != nil {
		t.Fatal(err)
	}
	merge := peer.TakeOutbox()[0].Payload
	rep.Deliver("n2", merge)
	v3 := rep.StateVersion()
	if rep.acc.round.ID != writeID || v3 <= v2 {
		t.Fatalf("round-only MERGE: round %v, version %d -> %d", rep.acc.round, v2, v3)
	}
	rep.Deliver("n2", merge)
	if got := rep.StateVersion(); got != v3 {
		t.Fatalf("duplicate MERGE moved version %d -> %d", v3, got)
	}

	if err := rep.Restore(rep.Snapshot()); err != nil {
		t.Fatal(err)
	}
	if rep.StateVersion() <= v3 {
		t.Fatal("restore did not advance version")
	}
}
