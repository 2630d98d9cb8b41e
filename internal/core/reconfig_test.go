package core

import (
	"errors"
	"testing"

	"crdtsmr/internal/crdt"
	"crdtsmr/internal/transport"
)

// addJoiner adds a blank joiner replica (empty config, non-member) to the
// harness, the way a freshly provisioned node waits to be reconfigured in.
func (nw *net) addJoiner(id transport.NodeID, opts Options) *Replica {
	nw.t.Helper()
	rep, err := NewReplicaConfig(id, Config{}, crdt.NewGCounter(), opts)
	if err != nil {
		nw.t.Fatal(err)
	}
	nw.reps[id] = rep
	return rep
}

func members(ids ...string) []transport.NodeID {
	out := make([]transport.NodeID, len(ids))
	for i, id := range ids {
		out[i] = transport.NodeID(id)
	}
	return out
}

func TestReconfigureAddMember(t *testing.T) {
	nw := newNet(t, 3, DefaultOptions())
	r1 := nw.reps["n1"]
	r4 := nw.addJoiner("n4", DefaultOptions())

	// Pre-reconfig history the joiner must inherit through the config push.
	if _, err := r1.SubmitUpdate(incAt(r1), nil); err != nil {
		t.Fatal(err)
	}
	nw.pump()
	nw.drain()

	var commitErr error
	committed := false
	if _, err := r1.SubmitReconfigure(members("n1", "n2", "n3", "n4"), func(err error) {
		commitErr, committed = err, true
	}); err != nil {
		t.Fatal(err)
	}
	nw.pump()
	nw.drain()

	if !committed || commitErr != nil {
		t.Fatalf("reconfiguration: committed=%v err=%v", committed, commitErr)
	}
	for id, rep := range nw.reps {
		cfg := rep.ConfigState()
		if cfg.Epoch != 1 || cfg.Source != "n1" || len(cfg.Members) != 4 {
			t.Fatalf("%s config = %+v, want epoch 1 source n1 with 4 members", id, cfg)
		}
		if !rep.IsMember() {
			t.Fatalf("%s should be a member after the reconfiguration", id)
		}
		if rep.Quorum() != 3 {
			t.Fatalf("%s quorum = %d, want 3 of 4", id, rep.Quorum())
		}
	}
	// The config push bootstrapped the joiner's payload — no log replay.
	if v := counterValue(t, r4.LocalState()); v != 1 {
		t.Fatalf("joiner payload = %d, want 1 (bootstrapped by config push)", v)
	}

	// The grown cluster serves commands with the new quorum.
	done := false
	if _, err := r4.SubmitUpdate(incAt(r4), func(_ UpdateStats, err error) {
		if err != nil {
			t.Fatalf("update on joiner: %v", err)
		}
		done = true
	}); err != nil {
		t.Fatal(err)
	}
	nw.pump()
	nw.drain()
	if !done {
		t.Fatal("update on joined member did not complete")
	}
}

func TestReconfigureRemoveMember(t *testing.T) {
	nw := newNet(t, 3, DefaultOptions())
	r1, r3 := nw.reps["n1"], nw.reps["n3"]

	var commitErr error
	committed := false
	if _, err := r1.SubmitReconfigure(members("n1", "n2"), func(err error) {
		commitErr, committed = err, true
	}); err != nil {
		t.Fatal(err)
	}
	nw.pump()
	nw.drain()
	if !committed || commitErr != nil {
		t.Fatalf("reconfiguration: committed=%v err=%v", committed, commitErr)
	}

	if r3.IsMember() {
		t.Fatal("n3 should no longer be a member")
	}
	if _, err := r3.SubmitUpdate(incAt(r3), nil); !errors.Is(err, ErrNotMember) {
		t.Fatalf("update on removed member: err = %v, want ErrNotMember", err)
	}
	var qErr error
	r3.SubmitQuery(func(_ crdt.State, _ QueryStats, err error) { qErr = err })
	if !errors.Is(qErr, ErrNotMember) {
		t.Fatalf("query on removed member: err = %v, want ErrNotMember", qErr)
	}

	// The shrunk pair still serves linearizable reads (quorum 2 of 2).
	if _, err := r1.SubmitUpdate(incAt(r1), nil); err != nil {
		t.Fatal(err)
	}
	nw.pump()
	nw.drain()
	var got uint64
	r1.SubmitQuery(func(s crdt.State, _ QueryStats, err error) {
		if err != nil {
			t.Fatalf("query after shrink: %v", err)
		}
		got = counterValue(t, s)
	})
	nw.pump()
	nw.drain()
	if got != 1 {
		t.Fatalf("read %d after shrink, want 1", got)
	}
}

func TestJoinerRefusesCommandsUntilConfigured(t *testing.T) {
	nw := newNet(t, 3, DefaultOptions())
	r4 := nw.addJoiner("n4", DefaultOptions())

	if r4.IsMember() {
		t.Fatal("blank joiner must not be a member")
	}
	if _, err := r4.SubmitUpdate(incAt(r4), nil); !errors.Is(err, ErrNotMember) {
		t.Fatalf("joiner update: err = %v, want ErrNotMember", err)
	}
	var qErr error
	r4.SubmitQuery(func(_ crdt.State, _ QueryStats, err error) { qErr = err })
	if !errors.Is(qErr, ErrNotMember) {
		t.Fatalf("joiner query: err = %v, want ErrNotMember", qErr)
	}
	if _, err := r4.SubmitReconfigure(members("n4"), nil); !errors.Is(err, ErrNotMember) {
		t.Fatalf("joiner reconfigure: err = %v, want ErrNotMember", err)
	}

	if _, err := nw.reps["n1"].SubmitReconfigure(members("n1", "n2", "n3", "n4"), nil); err != nil {
		t.Fatal(err)
	}
	nw.pump()
	nw.drain()
	if !r4.IsMember() {
		t.Fatal("joiner should be a member after the committed reconfiguration")
	}
	done := false
	if _, err := r4.SubmitUpdate(incAt(r4), func(_ UpdateStats, err error) {
		if err != nil {
			t.Fatal(err)
		}
		done = true
	}); err != nil {
		t.Fatal(err)
	}
	nw.pump()
	nw.drain()
	if !done {
		t.Fatal("update after joining did not complete")
	}
}

func TestStaleEpochTrafficIsRefusedAndRepaired(t *testing.T) {
	nw := newNet(t, 3, DefaultOptions())
	r1, r3 := nw.reps["n1"], nw.reps["n3"]

	// n3 misses the reconfiguration entirely: drop its RECONFIG.
	if _, err := r1.SubmitReconfigure(members("n1", "n2", "n3"), nil); err != nil {
		t.Fatal(err)
	}
	nw.pump()
	nw.drop(func(e env) bool { return e.typ == msgReconfig && e.to == "n3" })
	nw.drain()
	if r3.Epoch() != 0 {
		t.Fatalf("n3 epoch = %d, want 0 (missed the reconfig)", r3.Epoch())
	}

	// A stale-epoch update from n3 must not count toward any quorum at the
	// new epoch — it is refused, and the refusal repairs n3's config.
	if _, err := r3.SubmitUpdate(incAt(r3), nil); err != nil {
		t.Fatal(err)
	}
	nw.pump()
	before := r1.Counters().EpochNacks
	nw.drain()
	if r1.Counters().EpochNacks == before {
		t.Fatal("stale-epoch MERGE was not refused")
	}
	if r3.Epoch() != 1 {
		t.Fatalf("n3 epoch = %d after repair, want 1", r3.Epoch())
	}
	// The refused update converges once n3 retransmits at the new epoch.
	r3.RetransmitAll()
	nw.pump()
	nw.drain()
	if v := counterValue(t, r1.LocalState()); v != 1 {
		t.Fatalf("n1 payload = %d, want 1 after the repaired retransmission", v)
	}
}

func TestConcurrentReconfigurationsConverge(t *testing.T) {
	nw := newNet(t, 3, DefaultOptions())
	r1, r2 := nw.reps["n1"], nw.reps["n2"]

	var err1, err2 error
	if _, err := r1.SubmitReconfigure(members("n1", "n2"), func(err error) { err1 = err }); err != nil {
		t.Fatal(err)
	}
	if _, err := r2.SubmitReconfigure(members("n2", "n3"), func(err error) { err2 = err }); err != nil {
		t.Fatal(err)
	}
	nw.pump()
	nw.drain()

	// (1, n2) supersedes (1, n1): every replica converges to n2's proposal,
	// n1's is reported as a conflict.
	if !errors.Is(err1, ErrConfigConflict) {
		t.Fatalf("n1's proposal: err = %v, want ErrConfigConflict", err1)
	}
	if err2 != nil {
		t.Fatalf("n2's proposal: err = %v, want commit", err2)
	}
	want := nw.reps["n2"].ConfigState()
	for id, rep := range nw.reps {
		cfg := rep.ConfigState()
		if !sameConfig(cfg, want) {
			t.Fatalf("%s config = %+v, want %+v", id, cfg, want)
		}
	}
	if nw.reps["n1"].IsMember() {
		t.Fatal("n1 should have been removed by the winning proposal")
	}
}

func TestReconfigureRejectsSecondInFlight(t *testing.T) {
	nw := newNet(t, 3, DefaultOptions())
	r1 := nw.reps["n1"]
	if _, err := r1.SubmitReconfigure(members("n1", "n2", "n3"), nil); err != nil {
		t.Fatal(err)
	}
	if _, err := r1.SubmitReconfigure(members("n1", "n2"), nil); !errors.Is(err, ErrReconfigInFlight) {
		t.Fatalf("second reconfigure: err = %v, want ErrReconfigInFlight", err)
	}
	if _, err := r1.SubmitReconfigure(members("n1", "n1", "n2"), nil); err == nil {
		t.Fatal("duplicate member accepted")
	}
	if _, err := r1.SubmitReconfigure(nil, nil); err == nil {
		t.Fatal("empty member set accepted")
	}
}

func TestReconfigureRetransmitCoversLoss(t *testing.T) {
	nw := newNet(t, 3, DefaultOptions())
	r1 := nw.reps["n1"]

	committed := false
	id, err := r1.SubmitReconfigure(members("n1", "n2", "n3"), func(err error) {
		if err != nil {
			t.Fatal(err)
		}
		committed = true
	})
	if err != nil {
		t.Fatal(err)
	}
	nw.pump()
	// Lose every proposal; the round must make no progress.
	if n := nw.drop(ofType(msgReconfig)); n != 2 {
		t.Fatalf("dropped %d RECONFIGs, want 2", n)
	}
	nw.drain()
	if committed {
		t.Fatal("committed without any remote ack")
	}
	if r1.InFlight() != 1 {
		t.Fatal("reconfiguration should still be pending")
	}
	r1.retransmit(id)
	nw.pump()
	nw.drain()
	if !committed {
		t.Fatal("retransmitted reconfiguration did not commit")
	}
	if r1.InFlight() != 0 {
		t.Fatal("committed reconfiguration still pending")
	}
}

func TestReconfigureAbort(t *testing.T) {
	nw := newNet(t, 3, DefaultOptions())
	r1 := nw.reps["n1"]
	var got error
	id, err := r1.SubmitReconfigure(members("n1", "n2", "n3", "n4"), func(err error) { got = err })
	if err != nil {
		t.Fatal(err)
	}
	nw.pump()
	nw.drop(ofType(msgReconfig))
	r1.abort(id)
	if !errors.Is(got, ErrAborted) {
		t.Fatalf("aborted reconfiguration: err = %v, want ErrAborted", got)
	}
	// The minted epoch stays adopted — epochs never roll back.
	if r1.Epoch() != 1 {
		t.Fatalf("epoch = %d after abort, want 1", r1.Epoch())
	}
}

func TestInFlightQueryRestartsAcrossReconfiguration(t *testing.T) {
	opts := DefaultOptions()
	opts.Lease = false
	nw := newNet(t, 3, opts)
	r1 := nw.reps["n1"]

	var stats QueryStats
	done := false
	r1.SubmitQuery(func(_ crdt.State, st QueryStats, err error) {
		if err != nil {
			t.Fatalf("query: %v", err)
		}
		stats, done = st, true
	})
	nw.pump()
	// Lose every PREPARE: the query is stuck mid-prepare when the member
	// set changes under it.
	nw.drop(ofType(msgPrepare))
	if done {
		t.Fatal("query completed with its PREPAREs dropped")
	}
	if _, err := r1.SubmitReconfigure(members("n1", "n2"), nil); err != nil {
		t.Fatal(err)
	}
	nw.pump()
	nw.drain()
	// The restarted PREPARE may race ahead of the RECONFIG to the peer and
	// be refused at the old epoch; the runtime's retransmit timer covers
	// that, modeled here by one retransmission sweep.
	if !done {
		r1.RetransmitAll()
		nw.pump()
		nw.drain()
	}
	if !done {
		t.Fatal("query did not complete after restarting under the new config")
	}
	if stats.Attempts < 2 {
		t.Fatalf("attempts = %d, want >= 2 (restart counted as a retry)", stats.Attempts)
	}
}

func TestInFlightUpdateCompletesUnderShrunkQuorum(t *testing.T) {
	nw := newNet(t, 5, DefaultOptions())
	r1 := nw.reps["n1"]

	done := false
	if _, err := r1.SubmitUpdate(incAt(r1), func(_ UpdateStats, err error) {
		if err != nil {
			t.Fatalf("update: %v", err)
		}
		done = true
	}); err != nil {
		t.Fatal(err)
	}
	nw.pump()
	// Deliver one MERGE+MERGED (n2): 2 of 5 merged — short of quorum 3.
	nw.deliver(func(e env) bool { return e.to == "n2" && e.typ == msgMerge })
	nw.deliver(func(e env) bool { return e.from == "n2" && e.typ == msgMerged })
	if done {
		t.Fatal("update completed below quorum")
	}
	nw.drop(ofType(msgMerge))
	// Shrinking to {n1, n2, n3} drops the quorum to 2: the acks already
	// gathered (self + n2) now suffice and the update completes at adoption.
	if _, err := r1.SubmitReconfigure(members("n1", "n2", "n3"), nil); err != nil {
		t.Fatal(err)
	}
	if !done {
		t.Fatal("update did not complete when the new quorum was already met")
	}
	nw.pump()
	nw.drain()
}

func TestSnapshotCarriesConfig(t *testing.T) {
	nw := newNet(t, 3, DefaultOptions())
	r1 := nw.reps["n1"]
	if _, err := r1.SubmitReconfigure(members("n1", "n2", "n3", "n4"), nil); err != nil {
		t.Fatal(err)
	}
	nw.pump()
	nw.drain()

	snap := r1.Snapshot()
	if snap.Config.Epoch != 1 || len(snap.Config.Members) != 4 {
		t.Fatalf("snapshot config = %+v, want epoch 1 with 4 members", snap.Config)
	}

	// A restart constructed at the boot-time (epoch 0) membership adopts
	// the snapshot's newer config.
	fresh, err := NewReplica("n1", members("n1", "n2", "n3"), crdt.NewGCounter(), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if err := fresh.Restore(snap); err != nil {
		t.Fatal(err)
	}
	cfg := fresh.ConfigState()
	if cfg.Epoch != 1 || cfg.Source != "n1" || len(cfg.Members) != 4 {
		t.Fatalf("restored config = %+v, want the snapshot's", cfg)
	}
	if fresh.Quorum() != 3 {
		t.Fatalf("restored quorum = %d, want 3 of 4", fresh.Quorum())
	}

	// The reverse never regresses: restoring an old (epoch 0) snapshot onto
	// a replica already at epoch 1 keeps the newer config.
	old := Snapshot{State: crdt.NewGCounter(), Config: Config{Members: members("n1", "n2", "n3")}}
	if err := fresh.Restore(old); err != nil {
		t.Fatal(err)
	}
	if fresh.Epoch() != 1 {
		t.Fatalf("epoch = %d after restoring an old snapshot, want 1", fresh.Epoch())
	}
}

func TestEpochNackRepairsBothDirections(t *testing.T) {
	nw := newNet(t, 3, DefaultOptions())
	r1, r2 := nw.reps["n1"], nw.reps["n2"]

	// Partition n2 away from the reconfiguration.
	if _, err := r1.SubmitReconfigure(members("n1", "n2", "n3"), nil); err != nil {
		t.Fatal(err)
	}
	nw.pump()
	nw.drop(func(e env) bool { return e.to == "n2" })
	nw.drain()
	if r2.Epoch() != 0 {
		t.Fatalf("n2 epoch = %d, want 0", r2.Epoch())
	}

	// Ahead-of-us direction: n1 (epoch 1) receives n2's stale MERGE and
	// pushes its config; behind-us direction: n2 (epoch 0) receives n1's
	// newer-epoch PREPARE and answers EPOCH-NACK, prompting the same push.
	if _, err := r2.SubmitUpdate(incAt(r2), nil); err != nil {
		t.Fatal(err)
	}
	nw.pump()
	nw.drain()
	if r2.Epoch() != 1 {
		t.Fatalf("n2 epoch = %d after anti-entropy, want 1", r2.Epoch())
	}
	for _, rep := range nw.reps {
		if !sameConfig(rep.ConfigState(), r1.ConfigState()) {
			t.Fatalf("configs did not converge: %s has %+v", rep.ID(), rep.ConfigState())
		}
	}
}

func TestReconfigureSingleReplicaGrowth(t *testing.T) {
	// A 1-node group growing to 3 is the bootstrap path of a fresh cluster.
	nw := &net{t: t, reps: make(map[transport.NodeID]*Replica)}
	r1, err := NewReplica("n1", members("n1"), crdt.NewGCounter(), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	nw.reps["n1"] = r1
	nw.addJoiner("n2", DefaultOptions())
	nw.addJoiner("n3", DefaultOptions())

	if _, err := r1.SubmitUpdate(incAt(r1), nil); err != nil {
		t.Fatal(err)
	}
	committed := false
	if _, err := r1.SubmitReconfigure(members("n1", "n2", "n3"), func(err error) {
		if err != nil {
			t.Fatal(err)
		}
		committed = true
	}); err != nil {
		t.Fatal(err)
	}
	nw.pump()
	nw.drain()
	if !committed {
		t.Fatal("growth from a single replica did not commit")
	}
	for id, rep := range nw.reps {
		if rep.Quorum() != 2 {
			t.Fatalf("%s quorum = %d, want 2 of 3", id, rep.Quorum())
		}
		if v := counterValue(t, rep.LocalState()); v != 1 {
			t.Fatalf("%s payload = %d, want 1", id, v)
		}
	}
}
