package paxos

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

// pnet is a manual message pool for deterministic Multi-Paxos tests.
type pnet struct {
	t    *testing.T
	reps map[transport.NodeID]*Replica
	sms  map[transport.NodeID]*rsm.Store
	pool []penv
	now  time.Time
}

type penv struct {
	from, to transport.NodeID
	typ      msgType
	payload  []byte
}

func newPNet(t *testing.T, n int) *pnet {
	t.Helper()
	members := make([]transport.NodeID, n)
	for i := range members {
		members[i] = transport.NodeID(fmt.Sprintf("n%d", i+1))
	}
	nw := &pnet{
		t:    t,
		reps: make(map[transport.NodeID]*Replica, n),
		sms:  make(map[transport.NodeID]*rsm.Store, n),
		now:  time.Unix(0, 0),
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

func (nw *pnet) advance(d time.Duration) { nw.now = nw.now.Add(d) }

func (nw *pnet) pump() {
	for _, rep := range nw.reps {
		for _, e := range rep.TakeOutbox() {
			m, err := decodeMessage(e.Payload)
			if err != nil {
				nw.t.Fatalf("bad outbound message: %v", err)
			}
			nw.pool = append(nw.pool, penv{from: rep.ID(), to: e.To, typ: m.Type, payload: e.Payload})
		}
	}
}

func (nw *pnet) deliver(match func(penv) bool) int {
	delivered := 0
	for i := 0; i < len(nw.pool); {
		e := nw.pool[i]
		if !match(e) {
			i++
			continue
		}
		nw.pool = append(nw.pool[:i], nw.pool[i+1:]...)
		if rep, ok := nw.reps[e.to]; ok {
			rep.Deliver(e.from, e.payload, nw.now)
			nw.pump()
		}
		delivered++
	}
	return delivered
}

func (nw *pnet) drain() {
	for len(nw.pool) > 0 {
		nw.deliver(func(penv) bool { return true })
	}
}

func (nw *pnet) drop(match func(penv) bool) {
	for i := 0; i < len(nw.pool); {
		if match(nw.pool[i]) {
			nw.pool = append(nw.pool[:i], nw.pool[i+1:]...)
			continue
		}
		i++
	}
}

// drainDropping drains the network while continuously discarding messages
// matching the filter, including ones produced mid-drain (e.g. eager
// catch-up traffic toward a partitioned node).
func (nw *pnet) drainDropping(match func(penv) bool) {
	for {
		nw.drop(match)
		if nw.deliver(func(e penv) bool { return !match(e) }) == 0 {
			nw.drop(match)
			if len(nw.pool) == 0 {
				return
			}
		}
	}
}

func (nw *pnet) elect(id transport.NodeID) {
	nw.t.Helper()
	nw.reps[id].ElectionTimeout(nw.now)
	nw.pump()
	nw.drain()
	if !nw.reps[id].IsLeader() {
		nw.t.Fatalf("%s failed to become leader", id)
	}
}

func TestElectionAndLeadership(t *testing.T) {
	nw := newPNet(t, 3)
	nw.elect("n1")
	for id, rep := range nw.reps {
		if rep.Leader() != "n1" {
			t.Fatalf("%s sees leader %q", id, rep.Leader())
		}
	}
}

func TestProposeChooseApply(t *testing.T) {
	nw := newPNet(t, 3)
	nw.elect("n1")

	done := false
	nw.reps["n1"].Propose(incCmd(4), func(res []byte, err error) {
		if err != nil {
			t.Fatalf("propose: %v", err)
		}
		done = true
	})
	nw.pump()
	nw.drain()
	if !done {
		t.Fatal("command not chosen")
	}
	// Followers learn the commit with the next message round.
	nw.reps["n1"].HeartbeatTick(nw.now)
	nw.pump()
	nw.drain()
	for id, sm := range nw.sms {
		if v := sm.CounterValue(ctrKey); v != 4 {
			t.Fatalf("%s applied %d, want 4", id, v)
		}
	}
}

func TestForwardingFromFollower(t *testing.T) {
	nw := newPNet(t, 3)
	nw.elect("n1")
	done := false
	nw.reps["n3"].Propose(incCmd(2), func(res []byte, err error) {
		if err != nil {
			t.Fatalf("forwarded: %v", err)
		}
		done = true
	})
	nw.pump()
	nw.drain()
	if !done {
		t.Fatal("forwarded command incomplete")
	}
}

func TestReadLeaseLocalRead(t *testing.T) {
	nw := newPNet(t, 3)
	nw.elect("n1")
	leaderRep := nw.reps["n1"]

	// Before any heartbeat acks, the lease is not held.
	if _, ok := leaderRep.ReadLocal(nw.now, readCmd()); ok {
		t.Fatal("lease valid without any follower acks")
	}
	// Commit a value, then renew the lease by heartbeating.
	leaderRep.Propose(incCmd(6), nil)
	nw.pump()
	nw.drain()
	leaderRep.HeartbeatTick(nw.now)
	nw.pump()
	nw.drain()

	res, ok := leaderRep.ReadLocal(nw.now, readCmd())
	if !ok {
		t.Fatal("lease should be valid after heartbeat acks")
	}
	v, err := rsm.DecodeValue(res)
	if err != nil || v != 6 {
		t.Fatalf("local read = %d, %v", v, err)
	}

	// After the lease window passes without renewal, local reads stop.
	nw.advance(leaderRep.LeaseDuration + time.Millisecond)
	if _, ok := leaderRep.ReadLocal(nw.now, readCmd()); ok {
		t.Fatal("lease still valid after expiry")
	}
}

func TestLeaseBlocksCompetingElection(t *testing.T) {
	nw := newPNet(t, 3)
	nw.elect("n1")
	nw.reps["n1"].HeartbeatTick(nw.now)
	nw.pump()
	nw.drain()

	// n2 campaigns while followers are inside the lease window: both n1 and
	// n3 must refuse, so n2 cannot assemble a quorum (its own promise only).
	nw.reps["n2"].ElectionTimeout(nw.now)
	nw.pump()
	nw.drain()
	if nw.reps["n2"].IsLeader() {
		t.Fatal("candidate won during an active lease window")
	}

	// Once the lease expires, the same campaign succeeds.
	nw.advance(nw.reps["n1"].LeaseDuration + time.Millisecond)
	nw.reps["n2"].ElectionTimeout(nw.now)
	nw.pump()
	nw.drain()
	if !nw.reps["n2"].IsLeader() {
		t.Fatal("candidate failed after lease expiry")
	}
}

func TestNewLeaderAdoptsAcceptedCommands(t *testing.T) {
	nw := newPNet(t, 3)
	nw.elect("n1")

	// n1 gets a command accepted by n2 but crashes before committing.
	fired := false
	nw.reps["n1"].Propose(incCmd(9), func(res []byte, err error) { fired = true })
	nw.pump()
	nw.deliver(func(e penv) bool { return e.typ == mAccept && e.to == "n2" })
	nw.drop(func(penv) bool { return true }) // n2's Accepted reply and n3's copy are lost

	// n2 campaigns after the lease window: its promise carries the accepted
	// command, which the new leader must re-propose and commit.
	nw.advance(nw.reps["n1"].LeaseDuration + time.Millisecond)
	nw.reps["n2"].ElectionTimeout(nw.now)
	nw.pump()
	nw.deliver(func(e penv) bool { return e.to == "n3" || e.from == "n3" })
	if !nw.reps["n2"].IsLeader() {
		t.Fatal("n2 did not win")
	}
	nw.drain()
	nw.reps["n2"].HeartbeatTick(nw.now)
	nw.pump()
	nw.drain()

	if v := nw.sms["n2"].CounterValue(ctrKey); v != 9 {
		t.Fatalf("adopted command not applied at new leader: %d", v)
	}
	if v := nw.sms["n3"].CounterValue(ctrKey); v != 9 {
		t.Fatalf("adopted command not applied at n3: %d", v)
	}
	_ = fired // the old leader's callback outcome depends on when it learns
}

func TestStaleLeaderStepsDown(t *testing.T) {
	nw := newPNet(t, 3)
	nw.elect("n1")
	nw.advance(nw.reps["n1"].LeaseDuration + time.Millisecond)

	// n2 wins an election that n1 never hears about (partition), so n1
	// still believes it leads.
	nw.reps["n2"].ElectionTimeout(nw.now)
	nw.pump()
	nw.drainDropping(func(e penv) bool { return e.to == "n1" || e.from == "n1" })
	if !nw.reps["n2"].IsLeader() {
		t.Fatal("n2 did not win")
	}
	if !nw.reps["n1"].IsLeader() {
		t.Fatal("n1 should still believe it leads")
	}

	// n1's next proposal is rejected with the higher ballot; it steps down
	// and fails the proposal.
	var gotErr error
	nw.reps["n1"].Propose(incCmd(1), func(res []byte, err error) { gotErr = err })
	nw.pump()
	nw.drain()
	if nw.reps["n1"].IsLeader() {
		t.Fatal("stale leader did not step down")
	}
	if !errors.Is(gotErr, ErrLostLeadership) {
		t.Fatalf("err = %v, want ErrLostLeadership", gotErr)
	}
}

func TestProposeNoLeaderFailsFast(t *testing.T) {
	nw := newPNet(t, 3)
	var gotErr error
	nw.reps["n1"].Propose(incCmd(1), func(res []byte, err error) { gotErr = err })
	if !errors.Is(gotErr, ErrNoLeader) {
		t.Fatalf("err = %v, want ErrNoLeader", gotErr)
	}
}

func TestLogTruncation(t *testing.T) {
	nw := newPNet(t, 3)
	nw.elect("n1")
	leaderRep := nw.reps["n1"]
	leaderRep.CompactEvery = 4
	for _, rep := range nw.reps {
		rep.CompactEvery = 4
	}

	for i := 0; i < 12; i++ {
		leaderRep.Propose(incCmd(1), nil)
		nw.pump()
		nw.drain()
		leaderRep.HeartbeatTick(nw.now)
		nw.pump()
		nw.drain()
	}
	// Two heartbeats: one to gather applied watermarks, one to truncate.
	leaderRep.HeartbeatTick(nw.now)
	nw.pump()
	nw.drain()
	if leaderRep.LogLen() > 8 {
		t.Fatalf("leader log not truncated: %d slots", leaderRep.LogLen())
	}
	for id, sm := range nw.sms {
		if v := sm.CounterValue(ctrKey); v != 12 {
			t.Fatalf("%s applied %d, want 12", id, v)
		}
	}
}

func TestCatchupAfterLostAccepts(t *testing.T) {
	nw := newPNet(t, 3)
	nw.elect("n1")
	leaderRep := nw.reps["n1"]

	// n3 misses two commands, including the eager catch-up traffic that
	// the commit notifications would trigger.
	for i := 0; i < 2; i++ {
		leaderRep.Propose(incCmd(1), nil)
		nw.pump()
		nw.drainDropping(func(e penv) bool { return e.to == "n3" })
	}
	if v := nw.sms["n3"].CounterValue(ctrKey); v != 0 {
		t.Fatalf("n3 unexpectedly applied %d", v)
	}
	// The next heartbeat announces the commits; n3 requests catch-up.
	leaderRep.HeartbeatTick(nw.now)
	nw.pump()
	nw.drain()
	if v := nw.sms["n3"].CounterValue(ctrKey); v != 2 {
		t.Fatalf("n3 caught up to %d, want 2", v)
	}
}

func TestSnapshotForFarBehindFollower(t *testing.T) {
	nw := newPNet(t, 3)
	nw.elect("n1")
	leaderRep := nw.reps["n1"]
	for _, rep := range nw.reps {
		rep.CompactEvery = 2
		rep.MaxRetained = 2
	}

	// n3 misses everything while n1+n2 commit and truncate past it
	// (bounded retention).
	dropN3 := func(e penv) bool { return e.to == "n3" }
	for i := 0; i < 10; i++ {
		leaderRep.Propose(incCmd(1), nil)
		nw.pump()
		nw.drainDropping(dropN3)
		leaderRep.HeartbeatTick(nw.now)
		nw.pump()
		nw.drainDropping(dropN3)
	}
	if leaderRep.LogLen() >= 10 {
		t.Fatalf("leader retained %d slots despite MaxRetained", leaderRep.LogLen())
	}

	// n3 rejoins; its heartbeat ack advertises applied=0, behind the
	// truncation horizon, so the leader must send a snapshot.
	leaderRep.HeartbeatTick(nw.now)
	nw.pump()
	nw.drain()
	leaderRep.HeartbeatTick(nw.now)
	nw.pump()
	nw.drain()
	if v := nw.sms["n3"].CounterValue(ctrKey); v != 10 {
		t.Fatalf("n3 caught up to %d, want 10", v)
	}
}

func TestBallotOrdering(t *testing.T) {
	a := Ballot{N: 1, ID: "x"}
	b := Ballot{N: 1, ID: "y"}
	c := Ballot{N: 2, ID: "a"}
	if !a.Less(b) || !b.Less(c) || c.Less(a) {
		t.Fatal("ballot order broken")
	}
}

func TestMessageCodec(t *testing.T) {
	in := &message{
		Type:     mPromise,
		Ballot:   Ballot{N: 3, ID: "n2"},
		Accepted: []slotCmd{{Slot: 4, Ballot: Ballot{N: 2, ID: "n1"}, Cmd: incCmd(1)}},
		Applied:  3,
	}
	out, err := decodeMessage(in.encode())
	if err != nil {
		t.Fatal(err)
	}
	if out.Ballot != in.Ballot || len(out.Accepted) != 1 || out.Accepted[0].Slot != 4 {
		t.Fatalf("round trip mangled: %+v", out)
	}
	if _, err := decodeMessage(nil); err == nil {
		t.Fatal("nil decoded")
	}
	if _, err := decodeMessage([]byte{0xff, 1, 1}); err == nil {
		t.Fatal("garbage decoded")
	}
}

func TestDeliverGarbageIgnored(t *testing.T) {
	nw := newPNet(t, 3)
	nw.reps["n1"].Deliver("n2", []byte{1, 2}, nw.now)
	nw.elect("n1")
}
