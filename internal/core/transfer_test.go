package core

import (
	"fmt"
	"testing"

	"crdtsmr/internal/crdt"
	"crdtsmr/internal/transport"
	"crdtsmr/internal/wire"
)

// newNetWith is newNet with an explicit initial payload, for transfer
// tests that need non-counter types.
func newNetWith(t *testing.T, n int, opts Options, s0 func() crdt.State) *net {
	t.Helper()
	members := make([]transport.NodeID, n)
	for i := range members {
		members[i] = transport.NodeID(fmt.Sprintf("n%d", i+1))
	}
	nw := &net{t: t, reps: make(map[transport.NodeID]*Replica, n)}
	for _, id := range members {
		rep, err := NewReplica(id, members, s0(), opts)
		if err != nil {
			t.Fatal(err)
		}
		nw.reps[id] = rep
	}
	return nw
}

func digestOpts(mode StateTransfer) Options {
	o := DefaultOptions()
	o.Transfer = mode
	return o
}

// kinds decodes the pool and returns the state-frame kind of every
// message matching the filter.
func (nw *net) kinds(match func(env) bool) []wire.StateKind {
	var out []wire.StateKind
	for _, e := range nw.pool {
		if !match(e) {
			continue
		}
		m, err := decodeMessage(e.payload)
		if err != nil {
			nw.t.Fatalf("undecodable pooled message: %v", err)
		}
		out = append(out, m.Kind)
	}
	return out
}

func TestParseStateTransfer(t *testing.T) {
	for _, mode := range []StateTransfer{TransferFull, TransferDigest, TransferDelta} {
		got, err := ParseStateTransfer(mode.String())
		if err != nil || got != mode {
			t.Fatalf("ParseStateTransfer(%q) = %v, %v", mode.String(), got, err)
		}
	}
	if _, err := ParseStateTransfer("compressed"); err == nil {
		t.Fatal("unknown mode accepted")
	}
}

// TestDigestModeConvergedQueryIsDigestOnly: once the cluster is converged,
// a query's remote ACKs must carry only digests, and the query must still
// learn the correct state by consistent quorum in one round trip.
func TestDigestModeConvergedQuery(t *testing.T) {
	nw := newNet(t, 3, digestOpts(TransferDigest))
	n1, n2 := nw.reps["n1"], nw.reps["n2"]

	if _, err := n1.SubmitUpdate(incAt(n1), nil); err != nil {
		t.Fatal(err)
	}
	nw.pump()
	nw.drain() // cluster converged: all acceptors hold the same payload

	var learned crdt.State
	var stats QueryStats
	n2.SubmitQuery(func(s crdt.State, st QueryStats, err error) {
		if err != nil {
			t.Fatalf("query: %v", err)
		}
		learned, stats = s, st
	})
	nw.pump()
	// The broadcast PREPAREs must announce the proposer's digest.
	for _, k := range nw.kinds(ofType(msgPrepare)) {
		if k != wire.StateDigest {
			t.Fatalf("PREPARE kind = %v, want digest", k)
		}
	}
	nw.deliver(ofType(msgPrepare))
	// Both remote ACKs must be digest-only.
	acks := nw.kinds(ofType(msgAck))
	if len(acks) != 2 {
		t.Fatalf("got %d pooled ACKs, want 2", len(acks))
	}
	for _, k := range acks {
		if k != wire.StateDigest {
			t.Fatalf("ACK kind = %v, want digest", k)
		}
	}
	nw.drain()
	if learned == nil {
		t.Fatal("query did not complete")
	}
	if v := counterValue(t, learned); v != 1 {
		t.Fatalf("learned %d, want 1", v)
	}
	if stats.Path != LearnConsistentQuorum || stats.RoundTrips != 1 {
		t.Fatalf("stats = %+v, want consistent quorum in 1 RTT", stats)
	}
	c1, c3 := nw.reps["n1"].Counters(), nw.reps["n3"].Counters()
	if c1.DigestReplies == 0 || c3.DigestReplies == 0 {
		t.Fatalf("acceptors sent no digest replies: n1=%d n3=%d", c1.DigestReplies, c3.DigestReplies)
	}
}

// TestDigestModeDivergedQueryFallsBackToFullAcks: an acceptor whose state
// does not match the announced digest must answer with its full payload,
// and the query must learn the join.
func TestDigestModeDivergedQuery(t *testing.T) {
	nw := newNet(t, 3, digestOpts(TransferDigest))
	n1, n2 := nw.reps["n1"], nw.reps["n2"]

	// An update whose MERGEs never arrive leaves n1 ahead of n2/n3.
	if _, err := n1.SubmitUpdate(incAt(n1), nil); err != nil {
		t.Fatal(err)
	}
	nw.pump()
	nw.drop(ofType(msgMerge))

	var learned crdt.State
	n2.SubmitQuery(func(s crdt.State, st QueryStats, err error) {
		if err != nil {
			t.Fatalf("query: %v", err)
		}
		learned = s
	})
	nw.pump()
	nw.deliver(ofType(msgPrepare))
	for _, k := range nw.kinds(func(e env) bool { return e.typ == msgAck && e.from == "n1" }) {
		if k != wire.StateFull {
			t.Fatalf("diverged ACK kind = %v, want full", k)
		}
	}
	nw.drain()
	if learned == nil {
		t.Fatal("query did not complete")
	}
	if v := counterValue(t, learned); v != 1 {
		t.Fatalf("learned %d, want 1 (n1's unmerged update must be visible)", v)
	}
}

// TestDeltaModeSendsDeltas: after a first full MERGE is acknowledged,
// subsequent MERGEs to that peer must ship join-decomposition deltas, and
// every replica must still converge to the full state.
func TestDeltaModeSendsDeltas(t *testing.T) {
	nw := newNet(t, 3, digestOpts(TransferDelta))
	n1 := nw.reps["n1"]

	if _, err := n1.SubmitUpdate(incAt(n1), nil); err != nil {
		t.Fatal(err)
	}
	nw.pump()
	for _, k := range nw.kinds(ofType(msgMerge)) {
		if k != wire.StateFull {
			t.Fatalf("first MERGE kind = %v, want full", k)
		}
	}
	nw.drain()

	if _, err := n1.SubmitUpdate(incAt(n1), nil); err != nil {
		t.Fatal(err)
	}
	nw.pump()
	kinds := nw.kinds(ofType(msgMerge))
	if len(kinds) != 2 {
		t.Fatalf("got %d MERGEs, want 2", len(kinds))
	}
	for _, k := range kinds {
		if k != wire.StateDelta {
			t.Fatalf("second MERGE kind = %v, want delta", k)
		}
	}
	nw.drain()
	if got := n1.Counters().DeltaMerges; got != 2 {
		t.Fatalf("DeltaMerges = %d, want 2", got)
	}
	for id, rep := range nw.reps {
		if v := counterValue(t, rep.LocalState()); v != 2 {
			t.Fatalf("%s converged to %d, want 2", id, v)
		}
	}
}

// TestDigestModeSuppressesUnchangedMerge: an update that leaves the
// payload unchanged (add-if-absent on a converged OR-set) must ship only
// digests, not the set.
func TestDigestModeSuppressesUnchangedMerge(t *testing.T) {
	nw := newNetWith(t, 3, digestOpts(TransferDigest), func() crdt.State { return crdt.NewORSet() })
	n1 := nw.reps["n1"]

	addX := func(s crdt.State) (crdt.State, error) {
		set := s.(*crdt.ORSet)
		if set.Contains("x") {
			return set, nil
		}
		return set.Add("x", "n1", 1), nil
	}
	if _, err := n1.SubmitUpdate(addX, nil); err != nil {
		t.Fatal(err)
	}
	nw.pump()
	nw.drain()

	done := false
	if _, err := n1.SubmitUpdate(addX, func(UpdateStats, error) { done = true }); err != nil {
		t.Fatal(err)
	}
	nw.pump()
	kinds := nw.kinds(ofType(msgMerge))
	if len(kinds) != 2 {
		t.Fatalf("got %d MERGEs, want 2", len(kinds))
	}
	for _, k := range kinds {
		if k != wire.StateDigest {
			t.Fatalf("no-op MERGE kind = %v, want digest", k)
		}
	}
	nw.drain()
	if !done {
		t.Fatal("suppressed update never completed")
	}
	if got := n1.Counters().DigestMerges; got != 2 {
		t.Fatalf("DigestMerges = %d, want 2", got)
	}
}

// TestMergeNackFallsBackToFull: a receiver that recognizes neither a
// delta's baseline nor a digest-only MERGE's digest must MERGE-NACK, and
// the sender must resend the full payload so the update still completes.
func TestMergeNackFallsBackToFull(t *testing.T) {
	noop := func(s crdt.State) (crdt.State, error) { return s, nil }
	for _, tc := range []struct {
		name string
		kind wire.StateKind // what n1 ships to n2 before the fallback
		fu   func(*Replica) crdt.Update
	}{
		{"delta", wire.StateDelta, incAt},
		// A no-op update leaves n1's payload at the state n2 last
		// acknowledged, so n1 ships the digest alone.
		{"digest", wire.StateDigest, func(*Replica) crdt.Update { return noop }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			nw := newNet(t, 3, digestOpts(TransferDelta))
			n1, n2 := nw.reps["n1"], nw.reps["n2"]

			if _, err := n1.SubmitUpdate(incAt(n1), nil); err != nil {
				t.Fatal(err)
			}
			nw.pump()
			nw.drain()

			// n2 loses its digest cache (the runtime declared n1 down and
			// back), and its payload moves past n1's baseline via a local
			// update whose MERGEs n1 never sees — so neither the ring nor
			// the own-state check can recognize what n1 ships.
			n2.ForgetPeer("n1")
			if _, err := n2.SubmitUpdate(incAt(n2), nil); err != nil {
				t.Fatal(err)
			}
			nw.pump()
			nw.drop(func(e env) bool { return e.from == "n2" && e.typ == msgMerge })

			done := false
			if _, err := n1.SubmitUpdate(tc.fu(n1), func(UpdateStats, error) { done = true }); err != nil {
				t.Fatal(err)
			}
			nw.pump()
			toN2 := func(e env) bool { return e.typ == msgMerge && e.to == "n2" }
			if got := nw.kinds(toN2); len(got) != 1 || got[0] != tc.kind {
				t.Fatalf("MERGE kinds to n2 = %v, want [%v]", got, tc.kind)
			}
			nw.deliver(toN2)
			if got := nw.kinds(func(e env) bool { return e.typ == msgMergeNack }); len(got) != 1 {
				t.Fatalf("got %d MERGE-NACKs, want 1", len(got))
			}
			nw.drain()
			if !done {
				t.Fatal("update never completed after fallback")
			}
			if got := n1.Counters().MergeFallbacks; got != 1 {
				t.Fatalf("MergeFallbacks = %d, want 1", got)
			}
			if le, err := n1.LocalState().Compare(n2.LocalState()); err != nil || !le {
				t.Fatalf("n2 does not hold n1's update after the fallback (le=%v, err=%v)", le, err)
			}
			// The fallback re-baselines: the next update to n2 is a delta again.
			if _, err := n1.SubmitUpdate(incAt(n1), nil); err != nil {
				t.Fatal(err)
			}
			nw.pump()
			for _, k := range nw.kinds(toN2) {
				if k != wire.StateDelta {
					t.Fatalf("post-fallback MERGE kind = %v, want delta", k)
				}
			}
			nw.drain()
		})
	}
}

// TestTransferModesLearnIdenticalStates drives the same workload through
// all three transfer modes and requires identical convergence.
func TestTransferModesConvergeIdentically(t *testing.T) {
	for _, mode := range []StateTransfer{TransferFull, TransferDigest, TransferDelta} {
		t.Run(mode.String(), func(t *testing.T) {
			nw := newNet(t, 3, digestOpts(mode))
			for i := 0; i < 5; i++ {
				rep := nw.reps[transport.NodeID(fmt.Sprintf("n%d", i%3+1))]
				if _, err := rep.SubmitUpdate(incAt(rep), nil); err != nil {
					t.Fatal(err)
				}
				nw.pump()
				nw.drain()
			}
			var learned crdt.State
			nw.reps["n3"].SubmitQuery(func(s crdt.State, _ QueryStats, err error) {
				if err != nil {
					t.Fatal(err)
				}
				learned = s
			})
			nw.pump()
			nw.drain()
			if v := counterValue(t, learned); v != 5 {
				t.Fatalf("learned %d, want 5", v)
			}
			for id, rep := range nw.reps {
				if v := counterValue(t, rep.LocalState()); v != 5 {
					t.Fatalf("%s converged to %d, want 5", id, v)
				}
			}
		})
	}
}

// TestForgetPeerDropsTransferCaches pins the bounded-cache contract: the
// runtime's peer-down signal clears both sides of the digest cache for
// exactly that peer.
func TestForgetPeerDropsTransferCaches(t *testing.T) {
	nw := newNet(t, 3, digestOpts(TransferDelta))
	n1 := nw.reps["n1"]
	if _, err := n1.SubmitUpdate(incAt(n1), nil); err != nil {
		t.Fatal(err)
	}
	nw.pump()
	nw.drain()
	if len(n1.xfer.views) != 2 {
		t.Fatalf("views = %d peers, want 2", len(n1.xfer.views))
	}
	n2 := nw.reps["n2"]
	if len(n2.xfer.seen) != 1 {
		t.Fatalf("n2 seen rings = %d, want 1", len(n2.xfer.seen))
	}
	n1.ForgetPeer("n2")
	if _, ok := n1.xfer.views["n2"]; ok {
		t.Fatal("view of n2 survived ForgetPeer")
	}
	if _, ok := n1.xfer.views["n3"]; !ok {
		t.Fatal("view of n3 was dropped too")
	}
	n2.ForgetPeer("n1")
	if len(n2.xfer.seen) != 0 {
		t.Fatal("n2's digest ring for n1 survived ForgetPeer")
	}
}

func TestDigestRing(t *testing.T) {
	var ring digestRing
	mk := func(b byte) crdt.Digest {
		var d crdt.Digest
		d[0] = b
		return d
	}
	for i := 0; i < digestRingSize+3; i++ {
		ring.add(mk(byte(i)))
	}
	if ring.contains(mk(0)) || ring.contains(mk(2)) {
		t.Fatal("evicted digests still present")
	}
	for i := 3; i < digestRingSize+3; i++ {
		if !ring.contains(mk(byte(i))) {
			t.Fatalf("recent digest %d missing", i)
		}
	}
	ring.add(mk(5)) // duplicate must not evict anything
	if !ring.contains(mk(3)) {
		t.Fatal("duplicate add evicted the oldest entry")
	}
}

// drainBytes drains the pool like drain and returns the payload bytes of
// every message delivered on the way.
func (nw *net) drainBytes() int {
	total := 0
	for len(nw.pool) > 0 {
		nw.deliver(func(e env) bool {
			total += len(e.payload)
			return true
		})
	}
	return total
}

// TestTransferModesByteReduction is the bytes gate of the state-transfer
// modes: on a converged 3-replica or-set at 1k elements, digest and delta
// transfer must cut the replica-wire bytes of a read by at least 5x
// against full-state transfer, delta must cut a growing add by 5x (full
// and digest re-ship the whole set), and an add that leaves the state
// unchanged must collapse by 5x in both cheap modes. Stepped delivery, so
// the byte counts are exact and the same on every run.
func TestTransferModesByteReduction(t *testing.T) {
	const size = 1000
	full := crdt.NewORSet()
	for i := 0; i < size; i++ {
		full = full.Add(fmt.Sprintf("elem-%06d", i), "seed", uint64(i))
	}
	raw, err := crdt.Marshal(full)
	if err != nil {
		t.Fatal(err)
	}
	stateLen := len(raw)
	if stateLen < 10000 {
		t.Fatalf("1k-element state marshals to only %dB — object not at size", stateLen)
	}

	type cost struct{ read, add, noop int }
	measure := func(mode StateTransfer) cost {
		nw := newNetWith(t, 3, digestOpts(mode), func() crdt.State { return crdt.NewORSet() })
		n1 := nw.reps["n1"]
		update := func(rep *Replica, fu crdt.Update) int {
			t.Helper()
			done := false
			if _, err := rep.SubmitUpdate(fu, func(_ UpdateStats, err error) {
				if err != nil {
					t.Fatalf("%v update: %v", mode, err)
				}
				done = true
			}); err != nil {
				t.Fatal(err)
			}
			nw.pump()
			n := nw.drainBytes()
			if !done {
				t.Fatalf("%v update did not complete", mode)
			}
			return n
		}
		// Converge on the 1k-element set: one populating update, then a
		// no-op update per replica, so every replica holds the state and
		// has acknowledged a MERGE from every other (the per-peer views
		// the cheap frames are built against).
		update(n1, func(s crdt.State) (crdt.State, error) { return s.Merge(full) })
		for _, id := range []transport.NodeID{"n1", "n2", "n3"} {
			update(nw.reps[id], func(s crdt.State) (crdt.State, error) { return s, nil })
		}

		var c cost
		var learned crdt.State
		nw.reps["n2"].SubmitQuery(func(s crdt.State, _ QueryStats, err error) {
			if err != nil {
				t.Fatalf("%v query: %v", mode, err)
			}
			learned = s
		})
		nw.pump()
		c.read = nw.drainBytes()
		if learned == nil || len(learned.(*crdt.ORSet).Elements()) != size {
			t.Fatalf("%v query did not learn the %d-element set", mode, size)
		}
		c.add = update(n1, func(s crdt.State) (crdt.State, error) {
			return s.(*crdt.ORSet).Add("new-000000", "w", size), nil
		})
		c.noop = update(n1, func(s crdt.State) (crdt.State, error) { return s, nil })
		return c
	}
	fullCost, digest, delta := measure(TransferFull), measure(TransferDigest), measure(TransferDelta)

	// Full mode ships the state in every ACK: a read must cost state-scale
	// bytes, or the baseline itself is broken.
	if fullCost.read < stateLen {
		t.Fatalf("full-mode read = %d B, below one state (%d B)", fullCost.read, stateLen)
	}
	for _, m := range []struct {
		mode StateTransfer
		c    cost
	}{{TransferDigest, digest}, {TransferDelta, delta}} {
		if fullCost.read < 5*m.c.read {
			t.Errorf("%v read = %d B vs full %d B, want ≥ 5x reduction", m.mode, m.c.read, fullCost.read)
		}
		// Digest mode cannot shrink a growing add (the state changed), but
		// an unchanged state must cost digest-scale bytes in both modes.
		if fullCost.noop < 5*m.c.noop {
			t.Errorf("%v no-op add = %d B vs full %d B, want ≥ 5x reduction", m.mode, m.c.noop, fullCost.noop)
		}
	}
	if fullCost.add < 5*delta.add {
		t.Errorf("delta add = %d B vs full %d B, want ≥ 5x reduction", delta.add, fullCost.add)
	}
}
