package core

import (
	"errors"
	"slices"
	"testing"

	"crdtsmr/internal/crdt"
)

// --- [Q19]: a learn completes every older query in flight at its proposer ---

// forReq matches the messages of one request, in both directions.
func (nw *net) forReq(id uint64) func(env) bool {
	return func(e env) bool {
		m, err := decodeMessage(e.payload)
		if err != nil {
			nw.t.Fatal(err)
		}
		return m.Req == id
	}
}

// outcome records one query's completions.
type outcome struct {
	calls int
	state crdt.State
	stats QueryStats
	err   error
}

func (o *outcome) done(s crdt.State, st QueryStats, err error) {
	o.calls++
	o.state, o.stats, o.err = s, st, err
}

// TestOlderQueryCompletesWhenYoungerLearns: a query stuck in flight
// completes at the very step a younger query at the same proposer
// learns, with the same state, its own RoundTrips and Attempts, and the
// younger query's Path.
func TestOlderQueryCompletesWhenYoungerLearns(t *testing.T) {
	opts := DefaultOptions()
	opts.Lease = false
	nw := newNet(t, 3, opts)
	n1, n2 := nw.reps["n1"], nw.reps["n2"]

	var older, younger outcome
	oldID := n2.SubmitQuery(older.done)
	nw.pump()
	nw.deliver(ofType(msgPrepare))
	nw.drop(nw.forReq(oldID)) // its ACKs are lost

	// n1 holds an update n2 lacks, so the younger query learns by vote.
	nw.diverge(n1)
	n2.SubmitQuery(younger.done)
	nw.pump()
	nw.deliver(func(e env) bool { return e.typ == msgPrepare && e.to == "n1" })
	nw.deliver(func(e env) bool { return e.typ == msgAck && e.from == "n1" })
	nw.deliver(func(e env) bool { return e.typ == msgVote && e.to == "n1" })
	if older.calls != 0 || younger.calls != 0 {
		t.Fatal("a query completed before the younger one's vote quorum")
	}
	nw.deliver(func(e env) bool { return e.typ == msgVoted && e.from == "n1" })

	if younger.calls != 1 || older.calls != 1 {
		t.Fatalf("callbacks: younger %d, older %d, want 1 each at the learn", younger.calls, older.calls)
	}
	if older.err != nil || older.state != younger.state || counterValue(t, older.state) != 1 {
		t.Fatalf("older query got (%v, %v), want the younger one's learned state", older.state, older.err)
	}
	if want := (QueryStats{RoundTrips: 1, Attempts: 1, Path: LearnVote}); older.stats != want {
		t.Fatalf("older stats = %+v, want %+v", older.stats, want)
	}
	if younger.stats.RoundTrips != 2 || younger.stats.Path != LearnVote {
		t.Fatalf("younger stats = %+v, want 2 RTTs by vote", younger.stats)
	}
	c := n2.Counters()
	if c.Rows[19] != 1 || c.Queries != 2 || c.ByVote != 2 || n2.InFlight() != 0 {
		t.Fatalf("Rows[19] %d, Queries %d, ByVote %d, in flight %d; want 1, 2, 2, 0", c.Rows[19], c.Queries, c.ByVote, n2.InFlight())
	}
}

// TestYoungerQueryNotCompletedByOlderLearn: a query submitted after the
// learning one may have started after its learn point, so it keeps
// running and learns on its own.
func TestYoungerQueryNotCompletedByOlderLearn(t *testing.T) {
	opts := DefaultOptions()
	opts.Lease = false
	nw := newNet(t, 3, opts)
	n2 := nw.reps["n2"]

	var older, younger outcome
	oldID := n2.SubmitQuery(older.done)
	newID := n2.SubmitQuery(younger.done)
	nw.pump()
	nw.deliver(nw.forReq(oldID))
	if older.calls != 1 || older.err != nil {
		t.Fatalf("older query: %d callbacks, err %v; want it learned", older.calls, older.err)
	}
	if younger.calls != 0 || n2.InFlight() != 1 {
		t.Fatalf("younger query completed by an older learn (%d callbacks)", younger.calls)
	}
	nw.deliver(nw.forReq(newID))
	if younger.calls != 1 || younger.err != nil || younger.stats.Attempts != 1 {
		t.Fatalf("younger query: %d callbacks, %+v, err %v; want its own learn", younger.calls, younger.stats, younger.err)
	}
	if r := n2.Counters().Rows[19]; r != 0 {
		t.Fatalf("Rows[19] = %d, want 0", r)
	}
}

// TestSharedLearnSkipsQueriesSettledInCallback: the learning query's
// callback aborts one older query and lets another learn on its own;
// neither is completed a second time, and the one left still shares.
func TestSharedLearnSkipsQueriesSettledInCallback(t *testing.T) {
	opts := DefaultOptions()
	opts.Lease = false
	nw := newNet(t, 3, opts)
	n2 := nw.reps["n2"]

	var answered, aborted, shared, learner outcome
	ansID := n2.SubmitQuery(answered.done)
	abortID := n2.SubmitQuery(aborted.done)
	n2.SubmitQuery(shared.done)
	nw.pump()
	// The first query's ACK from n1 is held back; everything else of the
	// three is lost.
	nw.deliver(func(e env) bool { return e.typ == msgPrepare && e.to == "n1" && nw.forReq(ansID)(e) })
	nw.drop(func(e env) bool { return e.typ == msgPrepare })
	held := slices.IndexFunc(nw.pool, nw.forReq(ansID))
	if held < 0 {
		t.Fatal("no ACK held for the first query")
	}
	ack := nw.pool[held]
	nw.pool = slices.Delete(nw.pool, held, held+1)

	n2.SubmitQuery(func(s crdt.State, st QueryStats, err error) {
		learner.done(s, st, err)
		n2.abort(abortID)
		n2.Deliver(ack.from, ack.payload)
	})
	nw.pump()
	nw.drain()

	for name, o := range map[string]*outcome{"answered": &answered, "aborted": &aborted, "shared": &shared, "learner": &learner} {
		if o.calls != 1 {
			t.Fatalf("%s query: %d callbacks, want 1", name, o.calls)
		}
	}
	if !errors.Is(aborted.err, ErrAborted) {
		t.Fatalf("aborted query err = %v, want ErrAborted", aborted.err)
	}
	if answered.err != nil || answered.stats.Path != LearnConsistentQuorum {
		t.Fatalf("answered query: %+v, err %v; want its own learn", answered.stats, answered.err)
	}
	if shared.err != nil || shared.state != learner.state {
		t.Fatalf("shared query got (%v, %v), want the learner's state", shared.state, shared.err)
	}
	if r := n2.Counters().Rows[19]; r != 1 {
		t.Fatalf("Rows[19] = %d, want 1 (only the query left in flight)", r)
	}
}

// TestSharedLearnOrder: the learning query completes first, then the
// older ones in ascending request ID order.
func TestSharedLearnOrder(t *testing.T) {
	opts := DefaultOptions()
	opts.Lease = false
	nw := newNet(t, 3, opts)
	n2 := nw.reps["n2"]

	var order []uint64
	record := func(id *uint64) QueryDone {
		return func(crdt.State, QueryStats, error) { order = append(order, *id) }
	}
	ids := make([]uint64, 4)
	for i := range ids {
		ids[i] = n2.SubmitQuery(record(&ids[i]))
	}
	nw.pump()
	nw.drop(func(e env) bool { return !nw.forReq(ids[3])(e) })
	nw.drain()
	if want := []uint64{ids[3], ids[0], ids[1], ids[2]}; !slices.Equal(order, want) {
		t.Fatalf("completion order %v, want %v", order, want)
	}
}
