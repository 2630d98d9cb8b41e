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
	if rep.nextReq != 3 {
		t.Fatalf("stale restore regressed nextReq to %d", rep.nextReq)
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
	if err := rep.Restore(rep.Snapshot()); err != nil {
		t.Fatal(err)
	}
	if rep.StateVersion() <= v2 {
		t.Fatal("restore did not advance version")
	}
}
