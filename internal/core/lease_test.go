package core

import (
	"testing"

	"crdtsmr/internal/crdt"
	"crdtsmr/internal/transport"
	"crdtsmr/internal/wire"
)

// --- round-lease fast path (docs/PROTOCOL.md §5) ---

// installLeaseAt runs one full quorum read at rep and drains, leaving rep
// holding a round lease.
func installLeaseAt(t *testing.T, nw *net, rep *Replica) {
	t.Helper()
	rep.SubmitQuery(func(_ crdt.State, _ QueryStats, err error) {
		if err != nil {
			t.Fatalf("lease-installing query: %v", err)
		}
	})
	nw.pump()
	nw.drain()
	if !rep.Leased() {
		t.Fatalf("%s holds no lease after a quorum read", rep.ID())
	}
}

func TestLeasedReadSkipsPrepare(t *testing.T) {
	nw := newNet(t, 3, DefaultOptions())
	n1 := nw.reps["n1"]
	installLeaseAt(t, nw, n1)

	var got crdt.State
	var stats QueryStats
	n1.SubmitQuery(func(s crdt.State, st QueryStats, err error) {
		if err != nil {
			t.Fatalf("leased query: %v", err)
		}
		got, stats = s, st
	})
	nw.pump()
	if n := len(nw.pool); n != 2 {
		t.Fatalf("leased read broadcast %d messages, want 2 VOTEs", n)
	}
	for _, e := range nw.pool {
		if e.typ != msgVote {
			t.Fatalf("leased read sent %v, want only VOTEs (no PREPARE)", e.typ)
		}
	}
	nw.drain()
	if got == nil {
		t.Fatal("leased query did not complete")
	}
	if !stats.Leased || stats.Attempts != 1 || stats.RoundTrips != 1 || stats.Path != LearnVote {
		t.Fatalf("stats = %+v, want leased vote learn in 1 attempt / 1 RTT", stats)
	}
	c := n1.Counters()
	if c.LeaseHits != 1 || c.LeaseFallbacks != 0 {
		t.Fatalf("counters = hits %d fallbacks %d, want 1/0", c.LeaseHits, c.LeaseFallbacks)
	}
}

// TestLeaseSurvivesHolderUpdate: the holder's own updates preserve the
// leased round at every acceptor (the MERGE carries the keep round), so
// a read-after-own-write still takes the fast path and sees the write.
func TestLeaseSurvivesHolderUpdate(t *testing.T) {
	nw := newNet(t, 3, DefaultOptions())
	n1 := nw.reps["n1"]
	installLeaseAt(t, nw, n1)

	if _, err := n1.SubmitUpdate(incAt(n1), nil); err != nil {
		t.Fatal(err)
	}
	nw.pump()
	nw.drain()
	if !n1.Leased() {
		t.Fatal("holder's own update dropped its lease")
	}

	var got crdt.State
	var stats QueryStats
	n1.SubmitQuery(func(s crdt.State, st QueryStats, err error) {
		if err != nil {
			t.Fatalf("leased query: %v", err)
		}
		got, stats = s, st
	})
	nw.pump()
	nw.drain()
	if !stats.Leased {
		t.Fatalf("read after own write fell off the fast path: %+v", stats)
	}
	if v := counterValue(t, got); v != 1 {
		t.Fatalf("leased read learned %d, want 1 (own committed update)", v)
	}
}

// TestLeaseStealFallsBack: a quorum read at another proposer moves every
// acceptor's round, so the old holder's next leased read is denied
// locally and falls back to the full two-phase protocol — one retry,
// correct result.
func TestLeaseStealFallsBack(t *testing.T) {
	nw := newNet(t, 3, DefaultOptions())
	n1, n2 := nw.reps["n1"], nw.reps["n2"]
	installLeaseAt(t, nw, n1)
	installLeaseAt(t, nw, n2) // steals: every acceptor adopts n2's round

	var stats QueryStats
	n1.SubmitQuery(func(_ crdt.State, st QueryStats, err error) {
		if err != nil {
			t.Fatalf("query: %v", err)
		}
		stats = st
	})
	nw.pump()
	nw.drain()
	if stats.Leased {
		t.Fatalf("stolen lease still fast-pathed: %+v", stats)
	}
	if stats.Attempts != 2 {
		t.Fatalf("attempts = %d, want 2 (leased attempt + fallback)", stats.Attempts)
	}
	c := n1.Counters()
	if c.LeaseFallbacks != 1 || c.Retries != 1 {
		t.Fatalf("fallbacks %d retries %d, want 1/1", c.LeaseFallbacks, c.Retries)
	}
}

// TestForeignUpdateDeniesLeasedRead: an update by a non-holder clobbers
// the leased round; the next leased read must fall back and still return
// the committed value.
func TestForeignUpdateDeniesLeasedRead(t *testing.T) {
	nw := newNet(t, 3, DefaultOptions())
	n1, n3 := nw.reps["n1"], nw.reps["n3"]
	installLeaseAt(t, nw, n1)

	if _, err := n3.SubmitUpdate(incAt(n3), nil); err != nil {
		t.Fatal(err)
	}
	nw.pump()
	nw.drain()

	var got crdt.State
	var stats QueryStats
	n1.SubmitQuery(func(s crdt.State, st QueryStats, err error) {
		if err != nil {
			t.Fatalf("query: %v", err)
		}
		got, stats = s, st
	})
	nw.pump()
	nw.drain()
	if stats.Leased {
		t.Fatalf("read fast-pathed across a foreign update: %+v", stats)
	}
	if v := counterValue(t, got); v != 1 {
		t.Fatalf("learned %d, want 1 (n3's committed update)", v)
	}
}

// TestLateIncrementalPrepareCannotRevalidateLease is the distilled
// linearizability regression: an incremental PREPARE delivered late can
// re-mint the leased round (Number = local+1 collides) at an acceptor
// whose payload has moved past the lease. The leased VOTE's coverage
// check must deny there, or the read would return a state missing a
// committed update.
func TestLateIncrementalPrepareCannotRevalidateLease(t *testing.T) {
	nw := newNet(t, 3, DefaultOptions())
	n1, n3 := nw.reps["n1"], nw.reps["n3"]

	// n1's lease installs from quorum {n1,n2}; its PREPARE to n3 stays in
	// flight.
	n1.SubmitQuery(func(_ crdt.State, _ QueryStats, err error) {
		if err != nil {
			t.Fatalf("install query: %v", err)
		}
	})
	nw.pump()
	nw.deliver(func(e env) bool { return e.typ == msgPrepare && e.to == "n2" })
	nw.deliver(func(e env) bool { return e.typ == msgAck && e.from == "n2" })
	if !n1.Leased() {
		t.Fatal("no lease installed from quorum {n1,n2}")
	}

	// n3's update commits at quorum {n3,n2}; n1 never hears of it.
	if _, err := n3.SubmitUpdate(incAt(n3), nil); err != nil {
		t.Fatal(err)
	}
	nw.pump()
	nw.deliver(func(e env) bool { return e.typ == msgMerge && e.to == "n2" })
	nw.deliver(func(e env) bool { return e.typ == msgMerged && e.to == "n3" })
	nw.drop(func(e env) bool { return e.typ == msgMerge && e.to == "n1" })

	// The stale PREPARE finally reaches n3: it re-mints exactly the leased
	// round (its number was still below the lease's).
	nw.deliver(func(e env) bool { return e.typ == msgPrepare && e.to == "n3" })
	nw.drop(func(e env) bool { return e.typ == msgAck })

	// n1's leased read: local vote passes (nothing touched n1), but n3 —
	// despite holding the leased round — knows a committed update the
	// proposal lacks and must deny. The read falls back and returns 1.
	var got crdt.State
	n1.SubmitQuery(func(s crdt.State, _ QueryStats, err error) {
		if err != nil {
			t.Fatalf("leased query: %v", err)
		}
		got = s
	})
	nw.pump()
	nw.drain()
	if got == nil {
		t.Fatal("query did not complete")
	}
	if v := counterValue(t, got); v != 1 {
		t.Fatalf("read returned %d, want 1 — missed a committed update", v)
	}
	if nw.reps["n3"].Counters().VotesRejected == 0 {
		t.Fatal("n3 voted for a proposal that missed its committed update")
	}
}

// TestLeaseDropSignals: ForgetPeer, DropLease, and Restore must all
// relinquish the lease — a restarted or partition-suspecting replica
// re-earns its fast path through a full quorum read.
func TestLeaseDropSignals(t *testing.T) {
	nw := newNet(t, 3, DefaultOptions())
	n1 := nw.reps["n1"]

	installLeaseAt(t, nw, n1)
	n1.ForgetPeer("n2")
	if n1.Leased() {
		t.Fatal("lease survived ForgetPeer")
	}

	installLeaseAt(t, nw, n1)
	n1.DropLease()
	if n1.Leased() {
		t.Fatal("lease survived DropLease")
	}

	installLeaseAt(t, nw, n1)
	if err := n1.Restore(n1.Snapshot()); err != nil {
		t.Fatal(err)
	}
	if n1.Leased() {
		t.Fatal("lease survived Restore — a restarted replica must re-earn it")
	}
}

// TestLeasedReadDigestSuppressed: a quiescent leased read of a large
// state ships no payload — the VOTE carries the proposal's digest and the
// acceptors verify it against their own payloads.
func TestLeasedReadDigestSuppressed(t *testing.T) {
	nw := newLargeNet(t, 3)
	n1 := nw.reps["n1"]
	if _, err := n1.SubmitUpdate(incAt(n1), nil); err != nil {
		t.Fatal(err)
	}
	nw.pump()
	nw.drain()
	installLeaseAt(t, nw, n1)

	var stats QueryStats
	n1.SubmitQuery(func(_ crdt.State, st QueryStats, err error) {
		if err != nil {
			t.Fatalf("leased query: %v", err)
		}
		stats = st
	})
	nw.pump()
	for _, k := range nw.kinds(ofType(msgVote)) {
		if k != wire.StateDigest {
			t.Fatalf("leased VOTE kind = %v, want digest-only", k)
		}
	}
	nw.drain()
	if !stats.Leased {
		t.Fatalf("quiescent read fell off the fast path: %+v", stats)
	}
}

// leaseHolderAddsToLargeSet leaves n1 holding the lease on a converged
// 1,000-element or-set after it added "new": n2 merged the add and n1 has
// its MERGED, while the MERGE to n3 is still in the pool. It returns the
// set n3 last acknowledged.
func leaseHolderAddsToLargeSet(t *testing.T) (*net, crdt.State) {
	t.Helper()
	nw := newNetWith(t, 3, DefaultOptions(), func() crdt.State { return crdt.NewORSet() })
	n1 := nw.reps["n1"]
	base := orSetOf(1000)
	if _, err := n1.SubmitUpdate(func(s crdt.State) (crdt.State, error) { return s.Merge(base) }, nil); err != nil {
		t.Fatal(err)
	}
	nw.pump()
	nw.drain()
	installLeaseAt(t, nw, n1)
	if _, err := n1.SubmitUpdate(func(s crdt.State) (crdt.State, error) {
		return s.(*crdt.ORSet).Add("new", "n1", 1), nil
	}, nil); err != nil {
		t.Fatal(err)
	}
	nw.pump()
	nw.deliver(func(e env) bool { return e.typ == msgMerge && e.to == "n2" })
	nw.deliver(func(e env) bool { return e.typ == msgMerged && e.from == "n2" })
	if n := len(nw.pool); n != 1 {
		t.Fatalf("pool holds %d messages, want only the MERGE to n3", n)
	}
	return nw, base
}

// pooledVote decodes the one pooled VOTE to the given replica and returns
// it with its encoded size.
func (nw *net) pooledVote(to transport.NodeID) (*message, int) {
	nw.t.Helper()
	var found []env
	for _, e := range nw.pool {
		if e.typ == msgVote && e.to == to {
			found = append(found, e)
		}
	}
	if len(found) != 1 {
		nw.t.Fatalf("%d pooled VOTEs to %s, want 1", len(found), to)
	}
	m, err := decodeMessage(found[0].payload)
	if err != nil {
		nw.t.Fatal(err)
	}
	return m, len(found[0].payload)
}

// TestLeasedVoteShipsDeltaToLaggingPeer: a leased VOTE takes the same
// per-peer form a MERGE would. The peer whose MERGED came back gets the
// proposal's digest; the peer whose MERGE is still in flight gets a delta
// against the state it last acknowledged, not the 43 KB proposal. The
// read stays on the fast path and learns the add.
func TestLeasedVoteShipsDeltaToLaggingPeer(t *testing.T) {
	nw, base := leaseHolderAddsToLargeSet(t)
	n1 := nw.reps["n1"]
	baseDig, err := crdt.DigestOf(base)
	if err != nil {
		t.Fatal(err)
	}
	propDig, err := crdt.DigestOf(n1.LocalState())
	if err != nil {
		t.Fatal(err)
	}

	var got crdt.State
	var stats QueryStats
	n1.SubmitQuery(func(s crdt.State, st QueryStats, err error) {
		if err != nil {
			t.Fatalf("leased query: %v", err)
		}
		got, stats = s, st
	})
	nw.pump()
	toN2, n2Bytes := nw.pooledVote("n2")
	toN3, n3Bytes := nw.pooledVote("n3")
	if toN2.Kind != wire.StateDigest || toN2.Digest != propDig {
		t.Fatalf("VOTE to n2: kind %v digest %v, want digest %v", toN2.Kind, toN2.Digest, propDig)
	}
	if toN3.Kind != wire.StateDelta || toN3.Baseline != baseDig || toN3.Digest != propDig {
		t.Fatalf("VOTE to n3: kind %v baseline %v digest %v, want delta %v → %v", toN3.Kind, toN3.Baseline, toN3.Digest, baseDig, propDig)
	}
	if n2Bytes != 42 || n3Bytes != 95 {
		t.Fatalf("VOTE bytes: n2 %d, n3 %d, want 42 and 95", n2Bytes, n3Bytes)
	}

	nw.deliver(func(e env) bool { return e.typ == msgVote && e.to == "n3" })
	nw.drain()
	if got == nil {
		t.Fatal("leased query did not complete")
	}
	if !stats.Leased || stats.Attempts != 1 {
		t.Fatalf("stats = %+v, want a leased learn in one attempt", stats)
	}
	if !got.(*crdt.ORSet).Contains("new") {
		t.Fatal("leased read missed the holder's add")
	}
	if c := nw.reps["n3"].Counters(); c.VotesAccepted != 1 || c.VotesRejected != 0 {
		t.Fatalf("n3 votes accepted %d rejected %d, want 1/0", c.VotesAccepted, c.VotesRejected)
	}
}

// TestDeltaVoteDeniedAfterForeignUpdate: a foreign update merged at n3
// before the delta VOTE arrives makes baseline ⊔ delta a strict subset of
// n3's payload. n3 must deny with its full state — not vote, and not echo
// the proposal's digest — so the read falls back and learns the update.
func TestDeltaVoteDeniedAfterForeignUpdate(t *testing.T) {
	nw, _ := leaseHolderAddsToLargeSet(t)
	n1, n2 := nw.reps["n1"], nw.reps["n2"]
	if _, err := n2.SubmitUpdate(func(s crdt.State) (crdt.State, error) {
		return s.(*crdt.ORSet).Add("foreign", "n2", 1), nil
	}, nil); err != nil {
		t.Fatal(err)
	}
	nw.pump()
	nw.deliver(func(e env) bool { return e.typ == msgMerge && e.from == "n2" && e.to == "n3" })
	nw.drop(func(e env) bool { return e.from == "n2" || e.to == "n2" })

	var got crdt.State
	var stats QueryStats
	n1.SubmitQuery(func(s crdt.State, st QueryStats, err error) {
		if err != nil {
			t.Fatalf("query: %v", err)
		}
		got, stats = s, st
	})
	nw.pump()
	if m, _ := nw.pooledVote("n3"); m.Kind != wire.StateDelta {
		t.Fatalf("VOTE to n3 kind = %v, want delta", m.Kind)
	}
	nw.deliver(func(e env) bool { return e.typ == msgVote && e.to == "n3" })
	var denial *message
	for _, e := range nw.pool {
		if e.typ == msgNack && e.from == "n3" {
			m, err := decodeMessage(e.payload)
			if err != nil {
				t.Fatal(err)
			}
			denial = m
		}
	}
	if denial == nil {
		t.Fatal("n3 did not deny the delta VOTE")
	}
	if denial.Kind != wire.StateFull || !denial.State.(*crdt.ORSet).Contains("foreign") {
		t.Fatalf("n3's denial is kind %v, want its full state with the foreign add", denial.Kind)
	}
	nw.drain()
	if got == nil {
		t.Fatal("query did not complete")
	}
	if stats.Leased || stats.Attempts != 2 {
		t.Fatalf("stats = %+v, want a fallback in the second attempt", stats)
	}
	set := got.(*crdt.ORSet)
	if !set.Contains("foreign") || !set.Contains("new") {
		t.Fatal("fallback read missed the foreign update or the holder's add")
	}
}
