package core

import (
	"errors"
	"testing"

	"crdtsmr/internal/crdt"
	"crdtsmr/internal/transport"
)

// --- retry accounting (the Retries counter must equal Σ(attempts-1)) ---

// TestRetriesMatchAttempts drives a mix of clean and retried queries at
// one proposer and checks the invariant the counter promises: Retries is
// exactly the number of extra attempts reported across all queries — a
// retransmit is not a retry, and no retry is ever counted twice.
func TestRetriesMatchAttempts(t *testing.T) {
	opts := DefaultOptions()
	opts.Lease = false
	nw := newNet(t, 3, opts)
	n1, n2, n3 := nw.reps["n1"], nw.reps["n2"], nw.reps["n3"]

	extra := 0
	query := func() {
		n2.SubmitQuery(func(_ crdt.State, st QueryStats, err error) {
			if err != nil {
				t.Fatalf("query: %v", err)
			}
			extra += st.Attempts - 1
		})
	}

	// Clean query: one attempt.
	query()
	nw.pump()
	nw.drain()

	// Vote-denied query: diverge states so the vote phase runs, then land
	// updates on the remote acceptors mid-vote so their denials force a
	// retry.
	if _, err := n1.SubmitUpdate(incAt(n1), nil); err != nil {
		t.Fatal(err)
	}
	nw.pump()
	nw.drop(ofType(msgMerge))
	query()
	nw.pump()
	nw.deliver(ofType(msgPrepare))
	nw.deliver(func(e env) bool { return e.typ == msgAck && e.from == "n1" })
	if _, err := n1.SubmitUpdate(incAt(n1), nil); err != nil {
		t.Fatal(err)
	}
	if _, err := n3.SubmitUpdate(incAt(n3), nil); err != nil {
		t.Fatal(err)
	}
	nw.pump()
	nw.drop(ofType(msgMerge))
	nw.drain()

	if extra == 0 {
		t.Fatal("schedule produced no retries — the invariant was not exercised")
	}
	if got := n2.Counters().Retries; got != uint64(extra) {
		t.Fatalf("Retries = %d, want Σ(attempts-1) = %d", got, extra)
	}
}

// TestRetransmitQueryKeepsAttempt: a retransmit after loss re-sends the
// in-flight attempt's PREPARE — it must not burn the attempt, count a
// retry, or change the round, and ACKs gathered before the loss keep
// counting.
func TestRetransmitQueryKeepsAttempt(t *testing.T) {
	opts := DefaultOptions()
	opts.Lease = false
	nw := newNet(t, 3, opts)
	n1 := nw.reps["n1"]

	var stats QueryStats
	var got crdt.State
	id := n1.SubmitQuery(func(s crdt.State, st QueryStats, err error) {
		if err != nil {
			t.Fatalf("query: %v", err)
		}
		got, stats = s, st
	})
	nw.pump()
	nw.drop(ofType(msgPrepare)) // both broadcast PREPAREs lost

	n1.retransmit(id)
	nw.pump()
	if n := nw.deliver(ofType(msgPrepare)); n != 2 {
		t.Fatalf("retransmit re-sent %d PREPAREs, want 2", n)
	}
	nw.drain()
	if got == nil {
		t.Fatal("query did not complete after retransmit")
	}
	if stats.Attempts != 1 {
		t.Fatalf("attempts = %d, want 1 — a retransmit is not a retry", stats.Attempts)
	}
	if c := n1.Counters().Retries; c != 0 {
		t.Fatalf("Retries = %d, want 0", c)
	}
}

// TestRetransmitQueryVotePhase: losing the VOTE broadcast and
// retransmitting must re-send VOTEs (not restart the query), and replies
// already gathered stay valid.
func TestRetransmitQueryVotePhase(t *testing.T) {
	opts := DefaultOptions()
	opts.Lease = false
	nw := newNet(t, 3, opts)
	n1, n2 := nw.reps["n1"], nw.reps["n2"]

	// Diverge states so the query needs the vote phase.
	if _, err := n1.SubmitUpdate(incAt(n1), nil); err != nil {
		t.Fatal(err)
	}
	nw.pump()
	nw.drop(ofType(msgMerge))

	var stats QueryStats
	var got crdt.State
	id := n2.SubmitQuery(func(s crdt.State, st QueryStats, err error) {
		if err != nil {
			t.Fatalf("query: %v", err)
		}
		got, stats = s, st
	})
	nw.pump()
	nw.deliver(ofType(msgPrepare))
	nw.deliver(ofType(msgAck))
	nw.drop(ofType(msgVote)) // the VOTE broadcast is lost

	n2.retransmit(id)
	nw.pump()
	if n := nw.deliver(ofType(msgVote)); n == 0 {
		t.Fatal("retransmit sent no VOTEs")
	}
	nw.drain()
	if got == nil {
		t.Fatal("query did not complete")
	}
	if stats.Attempts != 1 {
		t.Fatalf("attempts = %d, want 1", stats.Attempts)
	}
	if v := counterValue(t, got); v != 1 {
		t.Fatalf("learned %d, want 1", v)
	}
}

// --- the vote-grace period: a denied vote + a silent peer must not wedge ---

// TestRetransmitVoteGrace: a vote phase holding one denial and one peer
// that never answers (crashed or silently partitioned — the proposer
// cannot tell) is undecidable: re-sending the VOTE cannot help, because
// the denial stands until the round moves. The retransmit timeout is the
// only escape, so retransmit must retry the query instead of re-sending,
// or a minority partition wedges every in-flight read forever.
func TestRetransmitVoteGrace(t *testing.T) {
	opts := DefaultOptions()
	opts.Lease = false
	nw := newNet(t, 3, opts)
	n2, n3 := nw.reps["n2"], nw.reps["n3"]

	// n3 moves ahead with an update n2 never sees, so the query needs the
	// vote phase.
	if _, err := n3.SubmitUpdate(incAt(n3), nil); err != nil {
		t.Fatal(err)
	}
	nw.pump()
	nw.drop(ofType(msgMerge))

	var got crdt.State
	var stats QueryStats
	id := n2.SubmitQuery(func(s crdt.State, st QueryStats, err error) {
		if err != nil {
			t.Fatalf("query: %v", err)
		}
		got, stats = s, st
	})
	nw.pump()
	nw.drop(toNode("n1")) // n1 is silently down for the whole query
	nw.deliver(ofType(msgPrepare))
	nw.deliver(ofType(msgAck))
	// Land another update at n3 mid-vote so its round moves and the VOTE
	// is denied; now votes={n2}, denials={n3}, and n1 will never answer.
	if _, err := n3.SubmitUpdate(incAt(n3), nil); err != nil {
		t.Fatal(err)
	}
	nw.pump()
	nw.drop(ofType(msgMerge))
	nw.drop(toNode("n1"))
	nw.deliver(ofType(msgVote))
	nw.deliver(ofType(msgNack))
	if got != nil {
		t.Fatal("query decided without a vote quorum")
	}

	n2.retransmit(id)
	nw.pump()
	nw.drop(toNode("n1")) // n1 stays silent; the quorum is {n2, n3}
	nw.drain()
	if got == nil {
		t.Fatal("query wedged: retransmit re-sent the undecidable vote instead of retrying")
	}
	if stats.Attempts < 2 {
		t.Fatalf("attempts = %d, want ≥ 2 (the grace retry burns the attempt)", stats.Attempts)
	}
	if v := counterValue(t, got); v != 2 {
		t.Fatalf("learned %d, want 2", v)
	}
}

// TestRetransmitVoteGraceLeased is the same wedge on the prepare-skip
// fast path: the leased VOTE is denied by an acceptor whose payload the
// proposal does not cover, the third replica never answers, and the
// retransmit timeout must drive the lease fallback.
func TestRetransmitVoteGraceLeased(t *testing.T) {
	nw := newNet(t, 3, DefaultOptions())
	n2, n3 := nw.reps["n2"], nw.reps["n3"]

	// Install the lease at n2 with a clean quorum read.
	n2.SubmitQuery(func(_ crdt.State, _ QueryStats, err error) {
		if err != nil {
			t.Fatalf("install query: %v", err)
		}
	})
	nw.pump()
	nw.drain()
	if !n2.Leased() {
		t.Fatal("lease not installed by the clean read")
	}

	// n3 moves ahead with an update the lease holder never sees.
	if _, err := n3.SubmitUpdate(incAt(n3), nil); err != nil {
		t.Fatal(err)
	}
	nw.pump()
	nw.drop(ofType(msgMerge))

	var got crdt.State
	var stats QueryStats
	id := n2.SubmitQuery(func(s crdt.State, st QueryStats, err error) {
		if err != nil {
			t.Fatalf("leased query: %v", err)
		}
		got, stats = s, st
	})
	nw.pump()
	nw.drop(toNode("n1")) // n1 is silently down
	// n3's coverage check denies the leased VOTE (its payload is not ≤
	// the proposal); votes={n2}, denials={n3}, n1 outstanding forever.
	nw.deliver(ofType(msgVote))
	nw.deliver(ofType(msgNack))
	if got != nil {
		t.Fatal("leased query decided without a vote quorum")
	}

	n2.retransmit(id)
	nw.pump()
	nw.drop(toNode("n1"))
	nw.drain()
	if got == nil {
		t.Fatal("leased query wedged: retransmit must fall back, not re-send the denied VOTE")
	}
	if stats.Leased {
		t.Fatal("query still reports the fast path after falling back")
	}
	if v := counterValue(t, got); v != 1 {
		t.Fatalf("learned %d, want 1 — the fallback must gather n3's update", v)
	}
	if c := n2.Counters().LeaseFallbacks; c != 1 {
		t.Fatalf("LeaseFallbacks = %d, want 1", c)
	}
}

// --- aborted updates must still converge the cluster (large states) ---

// TestAbortedUpdateStillServesFullPayload: a client abandons an update
// whose delta MERGE a peer later rejects. The proposer no longer has an
// in-flight request, but the payload was already merged locally and
// counted by the abort — the retired slot must answer the MERGE-NACK
// with the full state, or the peer would silently miss the update.
func TestAbortedUpdateStillServesFullPayload(t *testing.T) {
	nw := newLargeNet(t, 3)
	n1, n2 := nw.reps["n1"], nw.reps["n2"]

	// Converge once so n1 holds delta baselines for its peers.
	if _, err := n1.SubmitUpdate(incAt(n1), nil); err != nil {
		t.Fatal(err)
	}
	nw.pump()
	nw.drain()

	// n2's caches go stale: it forgets n1 and moves its payload with an
	// update n1 never sees, so n1's next delta baseline is unrecognizable.
	n2.ForgetPeer("n1")
	if _, err := n2.SubmitUpdate(incAt(n2), nil); err != nil {
		t.Fatal(err)
	}
	nw.pump()
	nw.drop(func(e env) bool { return e.from == "n2" && e.typ == msgMerge })

	// n1 submits, the client gives up before any MERGED arrives.
	aborted := false
	id, err := n1.SubmitUpdate(incAt(n1), func(_ UpdateStats, err error) {
		if !errors.Is(err, ErrAborted) {
			t.Fatalf("done error = %v, want ErrAborted", err)
		}
		aborted = true
	})
	if err != nil {
		t.Fatal(err)
	}
	nw.pump()
	n1.abort(id)
	if !aborted {
		t.Fatal("abort did not fire the completion")
	}

	// n2 rejects the delta; the answer must come from the retired slot.
	nw.deliver(func(e env) bool { return e.typ == msgMerge && e.to == "n2" })
	if n := nw.deliver(func(e env) bool { return e.typ == msgMergeNack }); n != 1 {
		t.Fatalf("delivered %d MERGE-NACKs, want 1", n)
	}
	nw.drain()
	if got := n1.Counters().MergeFallbacks; got != 1 {
		t.Fatalf("MergeFallbacks = %d, want 1", got)
	}

	// n2 holds all three updates despite the abort: the first converged
	// round, its own, and the aborted one served in full from the retired
	// slot.
	if v := grown(t, n2.acc.state); v != 3 {
		t.Fatalf("n2 converged to %d, want 3", v)
	}
}

// diverge submits an update at rep whose MERGEs are all lost.
func (nw *net) diverge(rep *Replica) {
	if _, err := rep.SubmitUpdate(incAt(rep), nil); err != nil {
		nw.t.Fatal(err)
	}
	nw.pump()
	nw.drop(ofType(msgMerge))
}

// TestRowsCountScriptedSchedule pins Counters.Rows for one scripted
// schedule at proposer n2: each query-table transition the schedule
// takes is counted once, in its row's slot, and no other slot moves.
func TestRowsCountScriptedSchedule(t *testing.T) {
	nw := newNet(t, 3, DefaultOptions())
	n1, n2, n3 := nw.reps["n1"], nw.reps["n2"], nw.reps["n3"]
	query := func() uint64 {
		return n2.SubmitQuery(func(_ crdt.State, _ QueryStats, err error) {
			if err != nil {
				t.Fatalf("query: %v", err)
			}
		})
	}
	ackFromN1 := func() { // both remotes ACK; only n1's ACK is delivered
		nw.deliver(ofType(msgPrepare))
		nw.deliver(func(e env) bool { return e.typ == msgAck && e.from == "n1" })
	}

	// Q1 → Q6: a clean read installs the lease.
	query()
	nw.pump()
	nw.drain()
	// Q2 → Q12: a leased hit.
	query()
	nw.pump()
	nw.drain()
	// Q2 → Q3 → Q6: a foreign update moved the local round, so the local
	// acceptor denies the leased vote and the fallback reads cleanly.
	if _, err := n1.SubmitUpdate(incAt(n1), nil); err != nil {
		t.Fatal(err)
	}
	nw.pump()
	nw.drain()
	query()
	nw.pump()
	nw.drain()
	// Q1 → Q7 → Q8 → Q6: the proposer's own update lands between its
	// ACK and its vote.
	n2.DropLease()
	nw.diverge(n1)
	query()
	nw.pump()
	nw.diverge(n2)
	ackFromN1()
	nw.drain()
	// Q1 → Q15 → Q6: both PREPAREs are lost and re-sent.
	n2.DropLease()
	id := query()
	nw.pump()
	nw.drop(ofType(msgPrepare))
	n2.retransmit(id)
	nw.pump()
	nw.drain()
	// Q1 → Q7 → Q13 → Q14 → Q6: updates land on both remote acceptors
	// mid-vote, so both deny it.
	n2.DropLease()
	nw.diverge(n1)
	query()
	nw.pump()
	ackFromN1()
	nw.diverge(n1)
	nw.diverge(n3)
	nw.drain()

	got := n2.Counters().Rows
	want := [queryRows + 1]uint64{1: 4, 2: 2, 3: 1, 6: 5, 7: 2, 8: 1, 12: 1, 13: 1, 14: 1, 15: 1}
	if got != want {
		t.Fatalf("Rows = %v, want %v", got, want)
	}
	if c := n2.Counters(); c.Queries != 6 {
		t.Fatalf("Queries = %d, want 6", c.Queries)
	}
}

// broadcasts counts the distinct PREPARE and VOTE broadcasts from sent
// for query id: one per (type, attempt), however many peers got it.
func (nw *net) broadcasts(from transport.NodeID, id uint64) int {
	type key struct {
		typ     msgType
		attempt uint32
	}
	seen := map[key]bool{}
	for _, e := range nw.sent {
		if e.from != from || (e.typ != msgPrepare && e.typ != msgVote) {
			continue
		}
		m, err := decodeMessage(e.payload)
		if err != nil {
			nw.t.Fatal(err)
		}
		if m.Req == id {
			seen[key{m.Type, m.Attempt}] = true
		}
	}
	return len(seen)
}

// TestRoundTripsCountBroadcastsSent: a query's RoundTrips is the number
// of PREPARE and VOTE broadcasts it actually sent. A vote the local
// acceptor denies ([Q8]) restarts before its VOTE is sent, so it is no
// round trip; a vote the remote acceptors deny ([Q13], [Q14]) was sent,
// so it is one.
func TestRoundTripsCountBroadcastsSent(t *testing.T) {
	opts := DefaultOptions()
	opts.Lease = false
	nw := newNet(t, 3, opts)
	n1, n2, n3 := nw.reps["n1"], nw.reps["n2"], nw.reps["n3"]
	// run reads at n2 while n1 holds an update n2 lacks, so n1's ACK
	// sends the query to the vote phase; mid runs just before that ACK
	// is delivered, late just after.
	run := func(name string, mid, late func()) {
		var stats QueryStats
		nw.diverge(n1)
		id := n2.SubmitQuery(func(_ crdt.State, st QueryStats, err error) {
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			stats = st
		})
		nw.pump()
		nw.deliver(ofType(msgPrepare))
		mid()
		nw.deliver(func(e env) bool { return e.typ == msgAck && e.from == "n1" })
		late()
		nw.drain()
		if stats.Attempts != 2 {
			t.Fatalf("%s: stats %+v, want a query that retried once", name, stats)
		}
		if sent := nw.broadcasts("n2", id); stats.RoundTrips != sent {
			t.Fatalf("%s: RoundTrips = %d, want the %d broadcasts sent", name, stats.RoundTrips, sent)
		}
	}
	// [Q8]: the proposer's own update moves its round between its ACK
	// and its vote.
	run("local denial", func() { nw.diverge(n2) }, func() {})
	// [Q13] → [Q14]: updates on both remote acceptors deny the VOTE.
	run("remote denials", func() {}, func() { nw.diverge(n1); nw.diverge(n3) })
	if rows := n2.Counters().Rows; rows[8] != 1 || rows[14] != 1 {
		t.Fatalf("Rows[8], Rows[14] = %d, %d, want 1, 1", rows[8], rows[14])
	}
}
