package raft

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"crdtsmr/internal/rsm"
	"crdtsmr/internal/transport"
)

// The tests drive one counter of the keyed store.
const ctrKey = "c"

func incCmd(d int64) []byte { return rsm.EncodeIncKey(ctrKey, d) }
func readCmd() []byte       { return rsm.EncodeReadKey(ctrKey) }

// rnet is a manual message pool for deterministic Raft tests, mirroring the
// harness used for the core protocol.
type rnet struct {
	t    *testing.T
	reps map[transport.NodeID]*Replica
	sms  map[transport.NodeID]*rsm.Store
	pool []renv
}

type renv struct {
	from, to transport.NodeID
	typ      msgType
	payload  []byte
}

func newRNet(t *testing.T, n int) *rnet {
	t.Helper()
	members := make([]transport.NodeID, n)
	for i := range members {
		members[i] = transport.NodeID(fmt.Sprintf("n%d", i+1))
	}
	nw := &rnet{
		t:    t,
		reps: make(map[transport.NodeID]*Replica, n),
		sms:  make(map[transport.NodeID]*rsm.Store, n),
	}
	for _, id := range members {
		sm := rsm.NewStore()
		rep, err := NewReplica(id, members, sm)
		if err != nil {
			t.Fatal(err)
		}
		nw.reps[id] = rep
		nw.sms[id] = sm
	}
	return nw
}

func (nw *rnet) pump() {
	for _, rep := range nw.reps {
		for _, e := range rep.TakeOutbox() {
			m, err := decodeMessage(e.Payload)
			if err != nil {
				nw.t.Fatalf("bad outbound message: %v", err)
			}
			nw.pool = append(nw.pool, renv{from: rep.ID(), to: e.To, typ: m.Type, payload: e.Payload})
		}
	}
}

func (nw *rnet) deliver(match func(renv) bool) int {
	delivered := 0
	for i := 0; i < len(nw.pool); {
		e := nw.pool[i]
		if !match(e) {
			i++
			continue
		}
		nw.pool = append(nw.pool[:i], nw.pool[i+1:]...)
		if rep, ok := nw.reps[e.to]; ok {
			rep.Deliver(e.from, e.payload, time.Time{})
			nw.pump()
		}
		delivered++
	}
	return delivered
}

func (nw *rnet) drain() {
	for len(nw.pool) > 0 {
		nw.deliver(func(renv) bool { return true })
	}
}

func (nw *rnet) drop(match func(renv) bool) {
	for i := 0; i < len(nw.pool); {
		if match(nw.pool[i]) {
			nw.pool = append(nw.pool[:i], nw.pool[i+1:]...)
			continue
		}
		i++
	}
}

// elect makes the given replica leader by firing its election timeout and
// draining the network.
func (nw *rnet) elect(id transport.NodeID) {
	nw.t.Helper()
	nw.reps[id].ElectionTimeout(time.Time{})
	nw.pump()
	nw.drain()
	if !nw.reps[id].IsLeader() {
		nw.t.Fatalf("%s failed to win election", id)
	}
}

func TestElectionBasic(t *testing.T) {
	nw := newRNet(t, 3)
	nw.elect("n1")
	// All replicas agree on the leader and the term.
	for id, rep := range nw.reps {
		if rep.Leader() != "n1" {
			t.Fatalf("%s sees leader %q, want n1", id, rep.Leader())
		}
		if rep.Term() != 1 {
			t.Fatalf("%s term = %d, want 1", id, rep.Term())
		}
	}
}

func TestSingleNodeClusterLeadsItself(t *testing.T) {
	nw := newRNet(t, 1)
	nw.elect("n1")
	var got int64 = -1
	nw.reps["n1"].Propose(incCmd(5), func(res []byte, err error) {
		if err != nil {
			t.Fatal(err)
		}
		got = nw.sms["n1"].CounterValue(ctrKey)
	})
	nw.pump()
	nw.drain()
	if got != 5 {
		t.Fatalf("value = %d, want 5", got)
	}
}

func TestProposeCommitApply(t *testing.T) {
	nw := newRNet(t, 3)
	nw.elect("n1")

	committed := false
	nw.reps["n1"].Propose(incCmd(7), func(res []byte, err error) {
		if err != nil {
			t.Fatalf("propose: %v", err)
		}
		committed = true
	})
	nw.pump()
	nw.drain()
	if !committed {
		t.Fatal("proposal did not commit")
	}
	// A heartbeat propagates the leader's commit index to followers.
	nw.reps["n1"].HeartbeatTick(time.Time{})
	nw.pump()
	nw.drain()
	for id, sm := range nw.sms {
		if v := sm.CounterValue(ctrKey); v != 7 {
			t.Fatalf("%s applied value = %d, want 7", id, v)
		}
	}
}

func TestReadThroughLog(t *testing.T) {
	nw := newRNet(t, 3)
	nw.elect("n1")
	nw.reps["n1"].Propose(incCmd(3), nil)
	nw.pump()
	nw.drain()

	var got int64 = -1
	nw.reps["n1"].Propose(readCmd(), func(res []byte, err error) {
		if err != nil {
			t.Fatal(err)
		}
		v, err := rsm.DecodeValue(res)
		if err != nil {
			t.Fatal(err)
		}
		got = v
	})
	nw.pump()
	nw.drain()
	if got != 3 {
		t.Fatalf("read = %d, want 3", got)
	}
}

func TestForwardingFromFollower(t *testing.T) {
	nw := newRNet(t, 3)
	nw.elect("n1")

	done := false
	nw.reps["n2"].Propose(incCmd(1), func(res []byte, err error) {
		if err != nil {
			t.Fatalf("forwarded propose: %v", err)
		}
		done = true
	})
	nw.pump()
	nw.drain()
	if !done {
		t.Fatal("forwarded proposal did not complete")
	}
}

func TestProposeWithNoLeaderFailsFast(t *testing.T) {
	nw := newRNet(t, 3)
	var gotErr error
	nw.reps["n1"].Propose(incCmd(1), func(res []byte, err error) { gotErr = err })
	if !errors.Is(gotErr, ErrNoLeader) {
		t.Fatalf("err = %v, want ErrNoLeader", gotErr)
	}
}

func TestLeaderStepsDownOnHigherTerm(t *testing.T) {
	nw := newRNet(t, 3)
	nw.elect("n1")
	// n2 becomes a candidate at a higher term (e.g. after a partition).
	nw.reps["n2"].ElectionTimeout(time.Time{})
	nw.pump()
	nw.drain()
	if nw.reps["n1"].IsLeader() && nw.reps["n2"].IsLeader() {
		t.Fatal("two leaders")
	}
	if nw.reps["n1"].Term() < nw.reps["n2"].Term() {
		t.Fatal("old leader did not adopt the higher term")
	}
}

func TestUncommittedEntriesFailOnLeaderChange(t *testing.T) {
	nw := newRNet(t, 3)
	nw.elect("n1")
	nw.drain()

	// n1 proposes, but replication to followers is lost.
	var gotErr error
	fired := false
	nw.reps["n1"].Propose(incCmd(9), func(res []byte, err error) {
		fired = true
		gotErr = err
	})
	nw.pump()
	nw.drop(func(renv) bool { return true })

	// n2 wins a new election (its log is as up to date as n1's committed
	// prefix; n3 grants).
	nw.reps["n2"].ElectionTimeout(time.Time{})
	nw.pump()
	nw.deliver(func(e renv) bool { return e.to == "n3" || e.from == "n3" })
	if !nw.reps["n2"].IsLeader() {
		t.Fatal("n2 did not win")
	}
	nw.drain()
	// Old leader learns the new term and fails its dangling proposal.
	nw.reps["n2"].HeartbeatTick(time.Time{})
	nw.pump()
	nw.drain()
	if !fired {
		t.Fatal("dangling proposal never resolved")
	}
	if !errors.Is(gotErr, ErrLostLeadership) {
		t.Fatalf("err = %v, want ErrLostLeadership", gotErr)
	}
}

// TestForwardedLostLeadershipStaysTyped: a forwarded command whose
// leader loses its term before the entry commits fails at its origin with
// ErrLostLeadership, not with an untyped copy of its text.
func TestForwardedLostLeadershipStaysTyped(t *testing.T) {
	nw := newRNet(t, 3)
	nw.elect("n1")
	var gotErr error
	fired := false
	nw.reps["n3"].Propose(incCmd(9), func(res []byte, err error) { fired, gotErr = true, err })
	nw.pump()
	nw.deliver(func(e renv) bool { return e.typ == mForward })
	nw.drop(func(renv) bool { return true }) // n1's appends are lost

	nw.reps["n2"].ElectionTimeout(time.Time{})
	nw.pump()
	nw.deliver(func(e renv) bool { return e.to == "n3" || e.from == "n3" })
	if !nw.reps["n2"].IsLeader() || fired {
		t.Fatalf("n2 leads %v, forward settled early %v", nw.reps["n2"].IsLeader(), fired)
	}
	// n1 learns the new term and fails the forwarded entry.
	nw.drain()
	if !fired || !errors.Is(gotErr, ErrLostLeadership) {
		t.Fatalf("fired %v, err = %v, want ErrLostLeadership", fired, gotErr)
	}
}

func TestConflictingSuffixTruncated(t *testing.T) {
	nw := newRNet(t, 3)
	nw.elect("n1")
	nw.drain()

	// n1 appends two entries no one receives.
	nw.reps["n1"].Propose(incCmd(100), func([]byte, error) {})
	nw.reps["n1"].Propose(incCmd(200), func([]byte, error) {})
	nw.pump()
	nw.drop(func(renv) bool { return true })
	lenBefore := nw.reps["n1"].LogLen()

	// n2 becomes leader via n3 and commits a different entry.
	nw.reps["n2"].ElectionTimeout(time.Time{})
	nw.pump()
	nw.deliver(func(e renv) bool { return e.to == "n3" || e.from == "n3" })
	if !nw.reps["n2"].IsLeader() {
		t.Fatal("n2 did not win")
	}
	nw.drain()
	committed := false
	nw.reps["n2"].Propose(incCmd(1), func(res []byte, err error) {
		if err != nil {
			t.Fatal(err)
		}
		committed = true
	})
	nw.pump()
	nw.drain()
	if !committed {
		t.Fatal("n2's proposal did not commit")
	}

	// n1 rejoins; the new leader overwrites its conflicting suffix.
	nw.reps["n2"].HeartbeatTick(time.Time{})
	nw.pump()
	nw.drain()
	nw.reps["n2"].HeartbeatTick(time.Time{})
	nw.pump()
	nw.drain()
	if v := nw.sms["n1"].CounterValue(ctrKey); v != 1 {
		t.Fatalf("n1 applied %d, want 1 (conflicting entries must not apply)", v)
	}
	_ = lenBefore
	// n1's log now matches the leader's.
	if nw.reps["n1"].LogLen() != nw.reps["n2"].LogLen() {
		t.Fatalf("log lengths diverge: %d vs %d", nw.reps["n1"].LogLen(), nw.reps["n2"].LogLen())
	}
}

func TestVoteDeniedToStaleLog(t *testing.T) {
	nw := newRNet(t, 3)
	nw.elect("n1")
	committed := false
	nw.reps["n1"].Propose(incCmd(1), func(res []byte, err error) { committed = err == nil })
	nw.pump()
	nw.drain()
	if !committed {
		t.Fatal("setup commit failed")
	}

	// n3 is wiped and replaced by a fresh, empty-logged replica at term 0
	// that immediately campaigns: with a stale log it must not win against
	// replicas holding committed entries.
	members := []transport.NodeID{"n1", "n2", "n3"}
	freshSM := rsm.NewStore()
	fresh, err := NewReplica("n3", members, freshSM)
	if err != nil {
		t.Fatal(err)
	}
	nw.reps["n3"] = fresh
	nw.sms["n3"] = freshSM
	fresh.ElectionTimeout(time.Time{})
	nw.pump()
	nw.drain()
	if fresh.IsLeader() {
		t.Fatal("replica with stale log won election")
	}
}

// TestOneVotePerTerm: a follower that granted its vote in a term keeps
// it when the winner's first append fails the log check. Another
// candidate of that term must not collect it too, or the term has two
// leaders.
func TestOneVotePerTerm(t *testing.T) {
	nw := newRNet(t, 3)
	nw.elect("n1")
	// n2 holds an entry n3 lacks, so n3 is behind both n1 and n2.
	nw.reps["n1"].Propose(incCmd(1), nil)
	nw.pump()
	nw.drop(func(e renv) bool { return e.to == "n3" })
	nw.drain()
	// n3's failed campaign moves everyone to term 2, leaderless.
	nw.reps["n3"].ElectionTimeout(time.Time{})
	nw.pump()
	nw.drain()
	// n1 and n2 both campaign for term 3.
	nw.reps["n1"].ElectionTimeout(time.Time{})
	nw.reps["n2"].ElectionTimeout(time.Time{})
	nw.pump()
	msg := func(from, to transport.NodeID, typ msgType) func(renv) bool {
		return func(e renv) bool { return e.from == from && e.to == to && e.typ == typ }
	}
	for _, step := range []func(renv) bool{
		msg("n1", "n3", mRequestVote), // n3 votes for n1 in term 3
		msg("n3", "n1", mVote),        // n1 wins term 3
		msg("n1", "n3", mAppend),      // n3 follows n1, but lacks the entry before the new ones
		msg("n2", "n3", mRequestVote), // n2 asks n3 for the same term's vote
	} {
		if nw.deliver(step) != 1 {
			t.Fatal("scripted message missing")
		}
	}
	nw.deliver(msg("n3", "n2", mVote))
	if term := nw.reps["n1"].Term(); !nw.reps["n1"].IsLeader() || nw.reps["n2"].IsLeader() || term != 3 {
		t.Fatalf("term %d leaders: n1 %v, n2 %v; want n1 alone in term 3", term, nw.reps["n1"].IsLeader(), nw.reps["n2"].IsLeader())
	}
}

func TestCompactionAndSnapshotCatchUp(t *testing.T) {
	nw := newRNet(t, 3)
	nw.elect("n1")
	nw.drain()
	leaderRep := nw.reps["n1"]
	leaderRep.CompactEvery = 4

	// Commit entries while n3 hears nothing.
	for i := 0; i < 10; i++ {
		leaderRep.Propose(incCmd(1), nil)
		nw.pump()
		nw.deliver(func(e renv) bool { return e.to != "n3" && e.from != "n3" })
		nw.drop(func(e renv) bool { return e.to == "n3" })
	}
	if leaderRep.LogLen() >= 10 {
		t.Fatalf("leader log not compacted: %d entries", leaderRep.LogLen())
	}

	// n3 reconnects: replication must fall back to a snapshot.
	leaderRep.HeartbeatTick(time.Time{})
	nw.pump()
	nw.drain()
	leaderRep.HeartbeatTick(time.Time{})
	nw.pump()
	nw.drain()
	if v := nw.sms["n3"].CounterValue(ctrKey); v != 10 {
		t.Fatalf("n3 caught up to %d, want 10", v)
	}
}

func TestDeliverGarbage(t *testing.T) {
	nw := newRNet(t, 3)
	nw.reps["n1"].Deliver("n2", []byte{0xde, 0xad}, time.Time{})
	nw.reps["n1"].Deliver("n2", nil, time.Time{})
	// Still functional.
	nw.elect("n1")
}

func TestMessageCodec(t *testing.T) {
	in := &message{
		Type:      mAppend,
		Term:      9,
		PrevIndex: 4,
		PrevTerm:  3,
		Commit:    4,
		Entries:   []Entry{{Term: 9, Cmd: incCmd(2)}, {Term: 9, Cmd: readCmd()}},
	}
	out, err := decodeMessage(in.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if out.Term != 9 || out.PrevIndex != 4 || len(out.Entries) != 2 {
		t.Fatalf("round trip mangled: %+v", out)
	}
	if _, err := decodeMessage([]byte{}); err == nil {
		t.Fatal("empty decoded")
	}
	if _, err := decodeMessage([]byte{200, 1, 1}); err == nil {
		t.Fatal("unknown type decoded")
	}
}
