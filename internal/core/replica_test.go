package core

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"crdtsmr/internal/crdt"
	"crdtsmr/internal/transport"
)

// --- manual harness: exact control over message delivery order ---

type env struct {
	from, to transport.NodeID
	typ      msgType
	payload  []byte
}

// net wires replicas together with an explicit message pool so tests can
// deliver messages in any order, drop them, or inspect them.
type net struct {
	t    *testing.T
	reps map[transport.NodeID]*Replica
	pool []env
}

func newNet(t *testing.T, n int, opts Options) *net {
	t.Helper()
	members := make([]transport.NodeID, n)
	for i := range members {
		members[i] = transport.NodeID(fmt.Sprintf("n%d", i+1))
	}
	nw := &net{t: t, reps: make(map[transport.NodeID]*Replica, n)}
	for _, id := range members {
		rep, err := NewReplica(id, members, crdt.NewGCounter(), opts)
		if err != nil {
			t.Fatal(err)
		}
		nw.reps[id] = rep
	}
	return nw
}

// pump drains every replica's outbox into the pool.
func (nw *net) pump() {
	for _, rep := range nw.reps {
		for _, e := range rep.TakeOutbox() {
			m, err := decodeMessage(e.Payload)
			if err != nil {
				nw.t.Fatalf("undecodable outbound message: %v", err)
			}
			nw.pool = append(nw.pool, env{from: rep.ID(), to: e.To, typ: m.Type, payload: e.Payload})
		}
	}
}

// deliver delivers (and removes) every pooled message matching the filter,
// in pool order, pumping newly produced messages afterwards. It returns how
// many messages it delivered.
func (nw *net) deliver(match func(env) bool) int {
	delivered := 0
	for i := 0; i < len(nw.pool); {
		e := nw.pool[i]
		if !match(e) {
			i++
			continue
		}
		nw.pool = append(nw.pool[:i], nw.pool[i+1:]...)
		if rep, ok := nw.reps[e.to]; ok {
			rep.Deliver(e.from, e.payload)
			nw.pump()
		}
		delivered++
	}
	return delivered
}

// drain delivers every message until the pool is empty.
func (nw *net) drain() {
	for len(nw.pool) > 0 {
		nw.deliver(func(env) bool { return true })
	}
}

// drop removes matching messages from the pool without delivering them.
func (nw *net) drop(match func(env) bool) int {
	dropped := 0
	for i := 0; i < len(nw.pool); {
		if match(nw.pool[i]) {
			nw.pool = append(nw.pool[:i], nw.pool[i+1:]...)
			dropped++
			continue
		}
		i++
	}
	return dropped
}

func toNode(id transport.NodeID) func(env) bool {
	return func(e env) bool { return e.to == id }
}

func ofType(t msgType) func(env) bool {
	return func(e env) bool { return e.typ == t }
}

func incAt(rep *Replica) crdt.Update {
	id := string(rep.ID())
	return func(s crdt.State) (crdt.State, error) {
		return s.(*crdt.GCounter).Inc(id, 1), nil
	}
}

func counterValue(t *testing.T, s crdt.State) uint64 {
	t.Helper()
	c, ok := s.(*crdt.GCounter)
	if !ok {
		t.Fatalf("state is %T, want *crdt.GCounter", s)
	}
	return c.Value()
}

// TestCountersAddCoversEveryField: Add is hand-listed, so a field it
// misses silently reads 0 in every aggregated snapshot (Node.Counters,
// the benchmark's traced probes). Give every field a distinct value and
// require Add to carry each one into a zero Counters.
func TestCountersAddCoversEveryField(t *testing.T) {
	var in Counters
	v := reflect.ValueOf(&in).Elem()
	for i := 0; i < v.NumField(); i++ {
		v.Field(i).SetUint(uint64(i + 1))
	}
	var sum Counters
	sum.Add(in)
	got := reflect.ValueOf(sum)
	for i := 0; i < v.NumField(); i++ {
		if a, b := got.Field(i).Uint(), v.Field(i).Uint(); a != b {
			t.Errorf("Add(%s = %d) left %d", v.Type().Field(i).Name, b, a)
		}
	}
}

// --- update path ---

func TestUpdateSingleRoundTrip(t *testing.T) {
	nw := newNet(t, 3, DefaultOptions())
	r1 := nw.reps["n1"]

	var gotStats UpdateStats
	done := false
	if _, err := r1.SubmitUpdate(incAt(r1), func(st UpdateStats, err error) {
		if err != nil {
			t.Fatalf("update failed: %v", err)
		}
		gotStats, done = st, true
	}); err != nil {
		t.Fatal(err)
	}
	nw.pump()

	// The update applied locally before any message was delivered.
	if v := counterValue(t, r1.LocalState()); v != 1 {
		t.Fatalf("local value = %d, want 1", v)
	}
	// Two MERGE messages go out; one MERGED back suffices (quorum 2 incl. self).
	if n := nw.deliver(toNode("n2")); n != 1 {
		t.Fatalf("delivered %d MERGEs to n2, want 1", n)
	}
	if done {
		t.Fatal("update completed before any MERGED arrived")
	}
	if n := nw.deliver(func(e env) bool { return e.typ == msgMerged }); n != 1 {
		t.Fatalf("delivered %d MERGED, want 1", n)
	}
	if !done {
		t.Fatal("update not complete after quorum")
	}
	if gotStats.RoundTrips != 1 {
		t.Fatalf("round trips = %d, want 1", gotStats.RoundTrips)
	}
	// n3 eventually receives its MERGE too.
	nw.drain()
	if v := counterValue(t, nw.reps["n3"].LocalState()); v != 1 {
		t.Fatalf("n3 value = %d, want 1", v)
	}
}

func TestUpdateSingleReplicaCompletesImmediately(t *testing.T) {
	nw := newNet(t, 1, DefaultOptions())
	r1 := nw.reps["n1"]
	done := false
	if _, err := r1.SubmitUpdate(incAt(r1), func(st UpdateStats, err error) {
		if err != nil {
			t.Fatal(err)
		}
		done = true
	}); err != nil {
		t.Fatal(err)
	}
	if !done {
		t.Fatal("single-replica update should complete synchronously")
	}
}

func TestUpdateFunctionErrorPropagates(t *testing.T) {
	nw := newNet(t, 3, DefaultOptions())
	r1 := nw.reps["n1"]
	boom := errors.New("boom")
	called := false
	_, err := r1.SubmitUpdate(func(crdt.State) (crdt.State, error) { return nil, boom }, func(UpdateStats, error) {
		called = true
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if called {
		t.Fatal("done must not fire for a failed update function")
	}
}

func TestUpdateDuplicateMergedCountsOnce(t *testing.T) {
	nw := newNet(t, 5, DefaultOptions()) // quorum 3: needs 2 remote MERGED
	r1 := nw.reps["n1"]
	done := false
	if _, err := r1.SubmitUpdate(incAt(r1), func(st UpdateStats, err error) { done = true }); err != nil {
		t.Fatal(err)
	}
	nw.pump()
	nw.deliver(toNode("n2"))
	// Deliver n2's MERGED twice (network duplication).
	var merged env
	for _, e := range nw.pool {
		if e.typ == msgMerged {
			merged = e
		}
	}
	nw.deliver(ofType(msgMerged))
	if done {
		t.Fatal("one remote MERGED should not complete a quorum-3 update")
	}
	r1.Deliver(merged.from, merged.payload) // duplicate
	if done {
		t.Fatal("duplicate MERGED must not double-count")
	}
	nw.drain()
	if !done {
		t.Fatal("update did not complete")
	}
}

// --- query fast path ---

func TestQueryConsistentQuorumOneRoundTrip(t *testing.T) {
	nw := newNet(t, 3, DefaultOptions())
	r1 := nw.reps["n1"]

	// Settle an update everywhere first.
	if _, err := r1.SubmitUpdate(incAt(r1), nil); err != nil {
		t.Fatal(err)
	}
	nw.pump()
	nw.drain()

	var got crdt.State
	var stats QueryStats
	r1.SubmitQuery(func(s crdt.State, st QueryStats, err error) {
		if err != nil {
			t.Fatalf("query failed: %v", err)
		}
		got, stats = s, st
	})
	nw.pump()
	nw.drain()

	if got == nil {
		t.Fatal("query did not complete")
	}
	if v := counterValue(t, got); v != 1 {
		t.Fatalf("learned value = %d, want 1", v)
	}
	if stats.Path != LearnConsistentQuorum {
		t.Fatalf("path = %v, want consistent quorum", stats.Path)
	}
	if stats.RoundTrips != 1 || stats.Attempts != 1 {
		t.Fatalf("stats = %+v, want 1 RTT / 1 attempt", stats)
	}
}

// --- query vote path ---

func TestQueryLearnsByVoteWhenStatesDiverge(t *testing.T) {
	nw := newNet(t, 3, DefaultOptions())
	r1, r2 := nw.reps["n1"], nw.reps["n2"]

	// An update at n1 whose MERGEs never arrive: n1 holds value 1, the
	// others hold 0.
	if _, err := r1.SubmitUpdate(incAt(r1), nil); err != nil {
		t.Fatal(err)
	}
	nw.pump()
	nw.drop(ofType(msgMerge))

	var got crdt.State
	var stats QueryStats
	r2.SubmitQuery(func(s crdt.State, st QueryStats, err error) {
		if err != nil {
			t.Fatalf("query failed: %v", err)
		}
		got, stats = s, st
	})
	nw.pump()

	// Deliver n1's ACK first so the deciding quorum is {n2 (self), n1}
	// with states {0, 1}: inconsistent states, consistent rounds → vote.
	if n := nw.deliver(toNode("n1")); n != 1 {
		t.Fatalf("delivered %d PREPAREs to n1, want 1", n)
	}
	if n := nw.deliver(func(e env) bool { return e.typ == msgAck && e.from == "n1" }); n != 1 {
		t.Fatalf("delivered %d ACKs from n1, want 1", n)
	}
	if got != nil {
		t.Fatal("query decided before vote phase")
	}
	nw.drain()

	if got == nil {
		t.Fatal("query did not complete")
	}
	if stats.Path != LearnVote {
		t.Fatalf("path = %v, want vote", stats.Path)
	}
	if stats.RoundTrips != 2 || stats.Attempts != 1 {
		t.Fatalf("stats = %+v, want 2 RTTs / 1 attempt", stats)
	}
	// The learned state includes the partially merged update.
	if v := counterValue(t, got); v != 1 {
		t.Fatalf("learned value = %d, want 1", v)
	}
	// Update Visibility consequence: the vote pushed the state into a
	// quorum; n2 now stores it.
	if v := counterValue(t, r2.LocalState()); v != 1 {
		t.Fatalf("n2 local value after vote = %d, want 1", v)
	}
}

func TestQueryVoteDeniedByInterveningUpdateRetries(t *testing.T) {
	nw := newNet(t, 3, DefaultOptions())
	r1, r2 := nw.reps["n1"], nw.reps["n2"]

	// Diverge states: update at n1, MERGEs dropped.
	if _, err := r1.SubmitUpdate(incAt(r1), nil); err != nil {
		t.Fatal(err)
	}
	nw.pump()
	nw.drop(ofType(msgMerge))

	var got crdt.State
	var stats QueryStats
	r2.SubmitQuery(func(s crdt.State, st QueryStats, err error) {
		if err != nil {
			t.Fatalf("query failed: %v", err)
		}
		got, stats = s, st
	})
	nw.pump()
	// Reach the vote phase via n1's ACK (as in the previous test), but let
	// n3 adopt the round too so its VOTE denial is meaningful.
	nw.deliver(ofType(msgPrepare))
	nw.deliver(func(e env) bool { return e.typ == msgAck && e.from == "n1" })

	// Before the VOTEs arrive, updates land on both remote acceptors:
	// their round IDs become the write marker and the votes must be denied
	// (line 45). With a quorum of denials the proposer retries.
	if _, err := r1.SubmitUpdate(incAt(r1), nil); err != nil {
		t.Fatal(err)
	}
	if _, err := nw.reps["n3"].SubmitUpdate(incAt(nw.reps["n3"]), nil); err != nil {
		t.Fatal(err)
	}
	nw.pump()
	nw.drop(ofType(msgMerge))

	nw.drain()
	if got == nil {
		t.Fatal("query did not complete")
	}
	if stats.Attempts < 2 {
		t.Fatalf("attempts = %d, want a retry", stats.Attempts)
	}
	// The retry's prepare seed folds in the NACK payloads (§3.5), so the
	// learned state includes between one and all three submitted updates.
	if v := counterValue(t, got); v < 1 || v > 3 {
		t.Fatalf("learned value = %d, want 1..3", v)
	}
	if nw.reps["n2"].Counters().Retries == 0 {
		t.Fatal("expected a retry counter tick")
	}
}

func TestQueryInconsistentRoundsTriggersFixedPrepare(t *testing.T) {
	nw := newNet(t, 3, DefaultOptions())
	r1, r2, r3 := nw.reps["n1"], nw.reps["n2"], nw.reps["n3"]

	// Raise n1's round number to 1 via a query at n2 whose PREPARE reaches
	// only n1 (the query itself stays in flight).
	r2.SubmitQuery(nil)
	nw.pump()
	nw.deliver(func(e env) bool { return e.typ == msgPrepare && e.to == "n1" })
	nw.drop(func(env) bool { return true })

	// Diverge n1's state with a local update (keeps round number 1).
	if _, err := r1.SubmitUpdate(incAt(r1), nil); err != nil {
		t.Fatal(err)
	}
	nw.pump()
	nw.drop(ofType(msgMerge))

	// A query at n3 now sees: self ACK with round (1, n3#x) and state s0,
	// n1's ACK with round (2, n3#x) and the updated state — inconsistent
	// states AND inconsistent rounds, so neither fast path applies and the
	// proposer must retry with a fixed prepare at max+1 (lines 19-21).
	var stats QueryStats
	var got crdt.State
	r3.SubmitQuery(func(s crdt.State, st QueryStats, err error) {
		if err != nil {
			t.Fatalf("query failed: %v", err)
		}
		got, stats = s, st
	})
	nw.pump()
	if n := nw.deliver(func(e env) bool { return e.to == "n1" && e.typ == msgPrepare }); n != 1 {
		t.Fatalf("delivered %d PREPAREs to n1, want 1", n)
	}
	if n := nw.deliver(func(e env) bool { return e.typ == msgAck && e.from == "n1" }); n != 1 {
		t.Fatalf("delivered %d ACKs from n1, want 1", n)
	}
	nw.drain()

	if got == nil {
		t.Fatal("query did not complete")
	}
	if stats.Attempts < 2 {
		t.Fatalf("attempts = %d, want ≥ 2", stats.Attempts)
	}
	if r3.Counters().FixedPrepare == 0 {
		t.Fatal("expected a fixed prepare retry")
	}
	// The learned state includes n1's update, gathered during the retry.
	if v := counterValue(t, got); v != 1 {
		t.Fatalf("learned value = %d, want 1", v)
	}
}

// --- linearizability conditions (manual schedules) ---

func TestUpdateVisibility(t *testing.T) {
	// Theorem 3.10: if update u completes before query q is submitted, q's
	// learned state includes u.
	nw := newNet(t, 3, DefaultOptions())
	r1, r3 := nw.reps["n1"], nw.reps["n3"]

	updateDone := false
	if _, err := r1.SubmitUpdate(incAt(r1), func(UpdateStats, error) { updateDone = true }); err != nil {
		t.Fatal(err)
	}
	nw.pump()
	// Deliver the MERGE only to n2 — quorum {n1, n2} completes the update
	// while n3 has never heard of it.
	nw.deliver(func(e env) bool { return e.typ == msgMerge && e.to == "n2" })
	nw.deliver(ofType(msgMerged))
	if !updateDone {
		t.Fatal("update should be complete with quorum {n1,n2}")
	}
	nw.drop(ofType(msgMerge)) // n3's copy is lost

	var got crdt.State
	r3.SubmitQuery(func(s crdt.State, st QueryStats, err error) {
		if err != nil {
			t.Fatal(err)
		}
		got = s
	})
	nw.pump()
	nw.drain()
	if got == nil {
		t.Fatal("query did not complete")
	}
	if v := counterValue(t, got); v != 1 {
		t.Fatalf("query at n3 learned %d, want 1 (update visibility)", v)
	}
}

func TestStabilitySequentialQueries(t *testing.T) {
	// Theorem 3.5: states learned by subsequent queries grow monotonically,
	// across different proposers.
	nw := newNet(t, 3, DefaultOptions())
	r1, r2, r3 := nw.reps["n1"], nw.reps["n2"], nw.reps["n3"]

	var learned []crdt.State
	runQuery := func(rep *Replica) {
		done := false
		rep.SubmitQuery(func(s crdt.State, st QueryStats, err error) {
			if err != nil {
				t.Fatal(err)
			}
			learned = append(learned, s)
			done = true
		})
		nw.pump()
		nw.drain()
		if !done {
			t.Fatal("query did not complete")
		}
	}

	for i := 0; i < 3; i++ {
		if _, err := r1.SubmitUpdate(incAt(r1), nil); err != nil {
			t.Fatal(err)
		}
		nw.pump()
		nw.drop(func(e env) bool { return e.typ == msgMerge && e.to == "n3" }) // keep n3 stale
		nw.drain()
		runQuery(r2)
		runQuery(r3)
		runQuery(r1)
	}
	for i := 1; i < len(learned); i++ {
		le, err := learned[i-1].Compare(learned[i])
		if err != nil || !le {
			t.Fatalf("stability violated between query %d and %d: %v !⊑ %v", i-1, i, learned[i-1], learned[i])
		}
	}
}

func TestGLAStabilityMonotoneAtProcess(t *testing.T) {
	// §3.4: with GLA-Stability, states learned at the same process increase
	// monotonically even when replies for concurrent queries arrive out of
	// order. Two concurrent queries at n1; the one started later completes
	// first with a larger state; the earlier one must still return
	// something at least as large.
	nw := newNet(t, 3, DefaultOptions())
	r1 := nw.reps["n1"]

	var first, second crdt.State
	r1.SubmitQuery(func(s crdt.State, st QueryStats, err error) { first = s })
	nw.pump()
	q1Msgs := make([]env, len(nw.pool))
	copy(q1Msgs, nw.pool)
	nw.pool = nil // stall q1's PREPAREs

	// An update raises the state, then q2 completes fully.
	if _, err := r1.SubmitUpdate(incAt(r1), nil); err != nil {
		t.Fatal(err)
	}
	nw.pump()
	nw.drain()
	r1.SubmitQuery(func(s crdt.State, st QueryStats, err error) { second = s })
	nw.pump()
	nw.drain()
	if second == nil {
		t.Fatal("q2 did not complete")
	}
	if v := counterValue(t, second); v != 1 {
		t.Fatalf("q2 learned %d, want 1", v)
	}

	// Now q1's stale messages flow; without §3.4 it could learn 0.
	nw.pool = q1Msgs
	nw.drain()
	if first == nil {
		t.Fatal("q1 did not complete")
	}
	if v := counterValue(t, first); v < 1 {
		t.Fatalf("q1 learned %d after q2 learned 1: GLA-Stability violated", v)
	}
}

// --- retransmission, aborts, failures ---

func TestRetransmitUpdateAfterLoss(t *testing.T) {
	nw := newNet(t, 3, DefaultOptions())
	r1 := nw.reps["n1"]
	done := false
	id, err := r1.SubmitUpdate(incAt(r1), func(UpdateStats, error) { done = true })
	if err != nil {
		t.Fatal(err)
	}
	nw.pump()
	nw.drop(func(env) bool { return true }) // all MERGEs lost
	if done {
		t.Fatal("update completed with no acks")
	}
	r1.Retransmit(id)
	nw.pump()
	nw.drain()
	if !done {
		t.Fatal("retransmit did not complete the update")
	}
	// Retransmit of a completed request is a no-op.
	r1.Retransmit(id)
	nw.pump()
	if len(nw.pool) != 0 {
		t.Fatal("retransmit of completed request produced messages")
	}
}

func TestRetransmitQueryAfterLoss(t *testing.T) {
	nw := newNet(t, 3, DefaultOptions())
	r1 := nw.reps["n1"]
	var got crdt.State
	id := r1.SubmitQuery(func(s crdt.State, st QueryStats, err error) {
		if err != nil {
			t.Fatal(err)
		}
		got = s
	})
	nw.pump()
	nw.drop(func(env) bool { return true }) // all PREPAREs lost
	r1.Retransmit(id)
	nw.pump()
	nw.drain()
	if got == nil {
		t.Fatal("query did not complete after retransmit")
	}
}

func TestAbortQuery(t *testing.T) {
	nw := newNet(t, 3, DefaultOptions())
	r1 := nw.reps["n1"]
	var gotErr error
	id := r1.SubmitQuery(func(s crdt.State, st QueryStats, err error) { gotErr = err })
	nw.pump()
	r1.Abort(id)
	if !errors.Is(gotErr, ErrAborted) {
		t.Fatalf("err = %v, want ErrAborted", gotErr)
	}
	if r1.InFlight() != 0 {
		t.Fatal("aborted request still in flight")
	}
	// Late replies to the aborted request are discarded as stale.
	before := r1.Counters().StaleMsgs
	nw.drain()
	if r1.Counters().StaleMsgs == before {
		t.Fatal("late replies not counted as stale")
	}
}

func TestAbortUpdate(t *testing.T) {
	nw := newNet(t, 3, DefaultOptions())
	r1 := nw.reps["n1"]
	var gotErr error
	id, err := r1.SubmitUpdate(incAt(r1), func(st UpdateStats, e error) { gotErr = e })
	if err != nil {
		t.Fatal(err)
	}
	r1.Abort(id)
	if !errors.Is(gotErr, ErrAborted) {
		t.Fatalf("err = %v, want ErrAborted", gotErr)
	}
	r1.Abort(9999) // unknown: no-op
}

func TestQuerySurvivesMinorityCrash(t *testing.T) {
	nw := newNet(t, 3, DefaultOptions())
	r1 := nw.reps["n1"]
	// n3 is dead: drop everything addressed to it.
	var got crdt.State
	r1.SubmitQuery(func(s crdt.State, st QueryStats, err error) {
		if err != nil {
			t.Fatal(err)
		}
		got = s
	})
	nw.pump()
	nw.drop(toNode("n3"))
	nw.drain()
	if got == nil {
		t.Fatal("query did not survive minority crash")
	}
}

func TestUpdateSurvivesMinorityCrash(t *testing.T) {
	nw := newNet(t, 3, DefaultOptions())
	r1 := nw.reps["n1"]
	done := false
	if _, err := r1.SubmitUpdate(incAt(r1), func(UpdateStats, error) { done = true }); err != nil {
		t.Fatal(err)
	}
	nw.pump()
	nw.drop(toNode("n3"))
	nw.drain()
	if !done {
		t.Fatal("update did not survive minority crash")
	}
}

// --- constructor validation ---

func TestNewReplicaValidation(t *testing.T) {
	members := []transport.NodeID{"a", "b", "c"}
	if _, err := NewReplica("zz", members, crdt.NewGCounter(), DefaultOptions()); err == nil {
		t.Fatal("id outside member list should fail")
	}
	if _, err := NewReplica("a", members, nil, DefaultOptions()); err == nil {
		t.Fatal("nil initial state should fail")
	}
	if _, err := NewReplica("a", []transport.NodeID{"a", "a", "b"}, crdt.NewGCounter(), DefaultOptions()); err == nil {
		t.Fatal("duplicate member should fail")
	}
	r, err := NewReplica("a", members, crdt.NewGCounter(), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if r.Quorum() != 2 {
		t.Fatalf("quorum = %d, want 2", r.Quorum())
	}
	if r.ID() != "a" {
		t.Fatalf("id = %s", r.ID())
	}
}

func TestReplicaIgnoresGarbageMessages(t *testing.T) {
	nw := newNet(t, 3, DefaultOptions())
	r1 := nw.reps["n1"]
	r1.Deliver("n2", []byte{0x00})
	r1.Deliver("n2", nil)
	r1.Deliver("n2", []byte{0xff, 0x01, 0x02})
	if r1.Counters().MalformedMsgs == 0 {
		t.Fatal("garbage not counted")
	}
	// Replica still works afterwards.
	done := false
	if _, err := r1.SubmitUpdate(incAt(r1), func(UpdateStats, error) { done = true }); err != nil {
		t.Fatal(err)
	}
	nw.pump()
	nw.drain()
	if !done {
		t.Fatal("replica wedged after garbage")
	}
}

// TestBroadcastEncodesOnce: a PREPARE, a MERGE and a leased VOTE go to
// every peer as one encoded buffer, not one marshal of the state per peer
// — for a small state, and for a large state's first full MERGE.
func TestBroadcastEncodesOnce(t *testing.T) {
	nw := newNet(t, 3, DefaultOptions())
	r := nw.reps["n1"]
	check := func(what string) {
		t.Helper()
		out := r.TakeOutbox()
		if len(out) != 2 || out[0].To == out[1].To {
			t.Fatalf("%s: outbox %v, want one envelope per peer", what, out)
		}
		if &out[0].Payload[0] != &out[1].Payload[0] || len(out[0].Payload) != len(out[1].Payload) {
			t.Fatalf("%s: peers got separately encoded payloads", what)
		}
	}
	r.SubmitQuery(func(crdt.State, QueryStats, error) {})
	check("PREPARE")
	if _, err := r.SubmitUpdate(incAt(r), func(UpdateStats, error) {}); err != nil {
		t.Fatal(err)
	}
	check("MERGE")
	installLeaseAt(t, nw, r)
	r.SubmitQuery(func(crdt.State, QueryStats, error) {})
	check("leased VOTE")

	large := newLargeNet(t, 3).reps["n1"]
	if _, err := large.SubmitUpdate(incAt(large), func(UpdateStats, error) {}); err != nil {
		t.Fatal(err)
	}
	r = large
	check("large MERGE")
}
