package core

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"strings"
	"testing"

	"crdtsmr/internal/crdt"
	"crdtsmr/internal/transport"
	"crdtsmr/internal/wire"
)

// newNetWith is newNet with an explicit initial payload, for transfer
// tests that need large or non-counter states.
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

// padSlots is how many padding slots largeCounter holds: enough to put
// its encoding above largeState.
const padSlots = 128

// largeCounter is a g-counter of value padSlots whose encoding is above
// largeState, so replicas of it take the digest and delta paths while
// incAt still works; grown reads its value net of the padding.
func largeCounter() crdt.State {
	c := crdt.NewGCounter()
	for i := 0; i < padSlots; i++ {
		c = c.Inc(fmt.Sprintf("pad/%03d", i), 1)
	}
	return c
}

func grown(t *testing.T, s crdt.State) uint64 {
	t.Helper()
	return counterValue(t, s) - padSlots
}

// newLargeNet is newNet over largeCounter.
func newLargeNet(t *testing.T, n int) *net {
	return newNetWith(t, n, DefaultOptions(), largeCounter)
}

// orSetOf returns an or-set of n elements.
func orSetOf(n int) *crdt.ORSet {
	s := crdt.NewORSet()
	for i := 0; i < n; i++ {
		s = s.Add(fmt.Sprintf("elem-%06d", i), "seed", uint64(i))
	}
	return s
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

// TestDigestModeConvergedQuery: once a large state is converged, a
// query's remote ACKs must carry only digests, and the query must still
// learn the correct state by consistent quorum in one round trip.
func TestDigestModeConvergedQuery(t *testing.T) {
	nw := newLargeNet(t, 3)
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
	if v := grown(t, learned); v != 1 {
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

// TestDigestModeDivergedQuery: an acceptor whose large state does not
// match the announced digest must answer with its full payload, and the
// query must learn the join.
func TestDigestModeDivergedQuery(t *testing.T) {
	nw := newLargeNet(t, 3)
	n1, n2 := nw.reps["n1"], nw.reps["n2"]

	// Converge once, so every replica has seen the state's size.
	if _, err := n1.SubmitUpdate(incAt(n1), nil); err != nil {
		t.Fatal(err)
	}
	nw.pump()
	nw.drain()
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
	for _, e := range []struct {
		from transport.NodeID
		want wire.StateKind
	}{{"n1", wire.StateFull}, {"n3", wire.StateDigest}} {
		got := nw.kinds(func(x env) bool { return x.typ == msgAck && x.from == e.from })
		if len(got) != 1 || got[0] != e.want {
			t.Fatalf("ACK kinds from %s = %v, want [%v]", e.from, got, e.want)
		}
	}
	nw.drain()
	if learned == nil {
		t.Fatal("query did not complete")
	}
	if v := grown(t, learned); v != 2 {
		t.Fatalf("learned %d, want 2 (n1's unmerged update must be visible)", v)
	}
}

// TestDeltaModeSendsDeltas: after a first full MERGE is acknowledged,
// subsequent MERGEs of a large state to that peer must ship
// join-decomposition deltas, and every replica must still converge to the
// full state.
func TestDeltaModeSendsDeltas(t *testing.T) {
	nw := newLargeNet(t, 3)
	n1 := nw.reps["n1"]

	if _, err := n1.SubmitUpdate(incAt(n1), nil); err != nil {
		t.Fatal(err)
	}
	nw.pump()
	for _, k := range nw.kinds(ofType(msgMerge)) {
		if k != wire.StateFullDigest {
			t.Fatalf("first MERGE kind = %v, want full+digest", k)
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
		if v := grown(t, rep.LocalState()); v != 2 {
			t.Fatalf("%s converged to %d, want 2", id, v)
		}
	}
}

// TestDigestModeSuppressesUnchangedMerge: an update that leaves a large
// payload unchanged (add-if-absent on a converged OR-set) must ship only
// digests, not the set.
func TestDigestModeSuppressesUnchangedMerge(t *testing.T) {
	nw := newNetWith(t, 3, DefaultOptions(), func() crdt.State { return orSetOf(100) })
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
			nw := newLargeNet(t, 3)
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
			if got := n1.Counters().MergeFallbacks; got != 1 {
				t.Fatalf("post-fallback delta was refused too: MergeFallbacks = %d", got)
			}
		})
	}
}

// TestConvergedReadLearnsPeerViews: a digest-only ACK proves the acceptor
// holds the prepared state, so after one converged read the reader's next
// update ships deltas to both peers — even though it never sent them a
// MERGE — and the acceptors recognize the baseline without a fallback,
// even after their own payloads moved past it.
func TestConvergedReadLearnsPeerViews(t *testing.T) {
	nw := newNetWith(t, 3, DefaultOptions(), func() crdt.State { return crdt.NewORSet() })
	n1, n2 := nw.reps["n1"], nw.reps["n2"]
	full := orSetOf(1000)
	if _, err := n1.SubmitUpdate(func(s crdt.State) (crdt.State, error) { return s.Merge(full) }, nil); err != nil {
		t.Fatal(err)
	}
	nw.pump()
	nw.drain()

	n2.SubmitQuery(func(_ crdt.State, _ QueryStats, err error) {
		if err != nil {
			t.Fatalf("query: %v", err)
		}
	})
	nw.pump()
	nw.drain()
	if got := n2.Counters().Queries; got != 1 {
		t.Fatalf("converged read did not complete: %d queries", got)
	}
	// n1 and n3 move past the state n2 read; n2 does not hear of it.
	if _, err := n1.SubmitUpdate(func(s crdt.State) (crdt.State, error) {
		return s.(*crdt.ORSet).Add("mid", "n1", 1), nil
	}, nil); err != nil {
		t.Fatal(err)
	}
	nw.pump()
	nw.drop(toNode("n2"))
	nw.drain()

	if _, err := n2.SubmitUpdate(func(s crdt.State) (crdt.State, error) {
		return s.(*crdt.ORSet).Add("new", "n2", 1), nil
	}, nil); err != nil {
		t.Fatal(err)
	}
	nw.pump()
	if got := nw.kinds(ofType(msgMerge)); len(got) != 2 || got[0] != wire.StateDelta || got[1] != wire.StateDelta {
		t.Fatalf("MERGE kinds after a converged read = %v, want two deltas", got)
	}
	nw.drain()
	c := n2.Counters()
	if c.DeltaMerges != 2 || c.MergeFallbacks != 0 {
		t.Fatalf("DeltaMerges = %d, MergeFallbacks = %d, want 2 and 0", c.DeltaMerges, c.MergeFallbacks)
	}
	for id, rep := range nw.reps {
		if !rep.LocalState().(*crdt.ORSet).Contains("new") {
			t.Fatalf("%s missed the delta-shipped add", id)
		}
	}
}

// TestDeltaOntoExactBaseline: an acceptor whose payload is exactly a
// delta MERGE's baseline records the merged payload under the sender's
// digest, so the next delta onto it or PREPARE announcing it needs no
// hashing. A duplicate of that delta is still acknowledged, and a delta
// onto a baseline the acceptor does not know still gets a MERGE-NACK.
func TestDeltaOntoExactBaseline(t *testing.T) {
	nw := newNetWith(t, 3, DefaultOptions(), func() crdt.State { return orSetOf(100) })
	n1, n2 := nw.reps["n1"], nw.reps["n2"]
	seq := uint64(0)
	add := func(rep *Replica, e string) {
		t.Helper()
		seq++
		actor := string(rep.ID())
		if _, err := rep.SubmitUpdate(func(s crdt.State) (crdt.State, error) {
			return s.(*crdt.ORSet).Add(e, actor, seq), nil
		}, nil); err != nil {
			t.Fatal(err)
		}
		nw.pump()
	}
	toN2 := func(e env) bool { return e.typ == msgMerge && e.to == "n2" }
	fromN2 := func(typ msgType) int {
		n := 0
		for _, e := range nw.pool {
			if e.from == "n2" && e.typ == typ {
				n++
			}
		}
		return n
	}

	// First contact: full+digest, after which n2's payload is n1's state.
	add(n1, "a")
	nw.drain()

	add(n1, "b")
	if got := nw.kinds(toN2); len(got) != 1 || got[0] != wire.StateDelta {
		t.Fatalf("MERGE kinds to n2 = %v, want [delta]", got)
	}
	var delta env
	for _, e := range nw.pool {
		if toN2(e) {
			delta = e
		}
	}
	nw.deliver(toN2)
	want, err := crdt.DigestOf(n1.LocalState())
	if err != nil {
		t.Fatal(err)
	}
	if s, ok := n2.xfer.digests.Lookup(want); !ok || s != n2.LocalState() {
		t.Fatal("after a delta onto exactly its baseline, the sender's digest does not name n2's payload")
	}
	nw.drain()

	nw.pool = append(nw.pool, delta)
	nw.deliver(toN2)
	if merged, nacks := fromN2(msgMerged), fromN2(msgMergeNack); merged != 1 || nacks != 0 {
		t.Fatalf("duplicate delta answered with %d MERGED and %d MERGE-NACK, want 1 and 0", merged, nacks)
	}
	nw.drain()

	// n2 forgets n1's digests and moves past the baseline n1 holds for it.
	n2.ForgetPeer("n1")
	add(n2, "c")
	nw.drop(func(e env) bool { return e.from == "n2" })
	add(n1, "d")
	nw.deliver(toN2)
	if nacks := fromN2(msgMergeNack); nacks != 1 {
		t.Fatalf("delta onto an unknown baseline drew %d MERGE-NACKs, want 1", nacks)
	}
	nw.drain()
	if le, err := n1.LocalState().Compare(n2.LocalState()); err != nil || !le {
		t.Fatalf("n2 does not hold n1's update after the fallback (le=%v, err=%v)", le, err)
	}
}

// TestTransferModesConvergeIdentically drives the same workload over a
// small and a large counter and requires identical convergence.
func TestTransferModesConvergeIdentically(t *testing.T) {
	for _, tc := range []struct {
		name string
		s0   func() crdt.State
		pad  uint64
	}{
		{"small", func() crdt.State { return crdt.NewGCounter() }, 0},
		{"large", largeCounter, padSlots},
	} {
		t.Run(tc.name, func(t *testing.T) {
			nw := newNetWith(t, 3, DefaultOptions(), tc.s0)
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
			if v := counterValue(t, learned) - tc.pad; v != 5 {
				t.Fatalf("learned %d, want 5", v)
			}
			for id, rep := range nw.reps {
				if v := counterValue(t, rep.LocalState()) - tc.pad; v != 5 {
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
	nw := newLargeNet(t, 3)
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

// TestTransferModesByteReduction is the bytes gate of the size switch, on
// a converged 3-replica or-set: a read, a growing add and an add that
// leaves the state unchanged, each stepped, so the byte counts are exact
// and the same on every run. A 10-element set (below largeState) must
// cost exactly what the paper's full-state wire costs; a 1k-element set
// must cost digests and deltas only, far below one copy of its state.
func TestTransferModesByteReduction(t *testing.T) {
	type cost struct{ read, add, noop int }
	measure := func(size int) (cost, int) {
		full := orSetOf(size)
		raw, err := crdt.Marshal(full)
		if err != nil {
			t.Fatal(err)
		}
		nw := newNetWith(t, 3, DefaultOptions(), func() crdt.State { return crdt.NewORSet() })
		n1 := nw.reps["n1"]
		update := func(rep *Replica, fu crdt.Update) int {
			t.Helper()
			done := false
			if _, err := rep.SubmitUpdate(fu, func(_ UpdateStats, err error) {
				if err != nil {
					t.Fatalf("%d-element update: %v", size, err)
				}
				done = true
			}); err != nil {
				t.Fatal(err)
			}
			nw.pump()
			n := nw.drainBytes()
			if !done {
				t.Fatalf("%d-element update did not complete", size)
			}
			return n
		}
		// Converge on the set: one populating update, then a no-op update
		// per replica, so every replica holds the state and has
		// acknowledged a MERGE from every other.
		update(n1, func(s crdt.State) (crdt.State, error) { return s.Merge(full) })
		for _, id := range []transport.NodeID{"n1", "n2", "n3"} {
			update(nw.reps[id], func(s crdt.State) (crdt.State, error) { return s, nil })
		}

		var c cost
		var learned crdt.State
		nw.reps["n2"].SubmitQuery(func(s crdt.State, _ QueryStats, err error) {
			if err != nil {
				t.Fatalf("%d-element query: %v", size, err)
			}
			learned = s
		})
		nw.pump()
		c.read = nw.drainBytes()
		if learned == nil || len(learned.(*crdt.ORSet).Elements()) != size {
			t.Fatalf("query did not learn the %d-element set", size)
		}
		c.add = update(n1, func(s crdt.State) (crdt.State, error) {
			return s.(*crdt.ORSet).Add("new-000000", "w", uint64(size)), nil
		})
		c.noop = update(n1, func(s crdt.State) (crdt.State, error) { return s, nil })
		return c, len(raw)
	}

	// Small: the full-state wire — every ACK and MERGE carries the set.
	if got, stateLen := measure(10); stateLen >= largeState || got != (cost{read: 466, add: 492, noop: 492}) {
		t.Errorf("10-element set (%d B): %+v, want the full-state bytes {read:466 add:492 noop:492}", stateLen, got)
	}
	// Large: digest-only ACKs, a delta add, a digest-only no-op.
	got, stateLen := measure(1000)
	if got != (cost{read: 168, add: 220, noop: 96}) {
		t.Errorf("1000-element set: %+v, want {read:168 add:220 noop:96}", got)
	}
	if 100*got.read > stateLen {
		t.Errorf("1000-element read ships %d B, not ≪ one %d B state", got.read, stateLen)
	}
}

// TestStateFrameKindsChosenInTransfer is the census gate of the one
// encoding decision: outside transfer.go (and msg.go, the codec), no
// non-test file of the package names a wire.State* kind or touches the
// transfer caches directly. A message that picks its own frame form again
// fails here.
func TestStateFrameKindsChosenInTransfer(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	caches := map[string]bool{"views": true, "seen": true, "digests": true, "size": true}
	fset := token.NewFileSet()
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") || name == "transfer.go" || name == "msg.go" {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			switch x := sel.X.(type) {
			case *ast.Ident:
				if x.Name == "wire" && strings.HasPrefix(sel.Sel.Name, "State") {
					t.Errorf("%s: names wire.%s; state frame kinds are chosen in transfer.go", fset.Position(sel.Pos()), sel.Sel.Name)
				}
			case *ast.SelectorExpr:
				if x.Sel.Name == "xfer" && caches[sel.Sel.Name] {
					t.Errorf("%s: touches xfer.%s; the transfer caches are kept in transfer.go", fset.Position(sel.Pos()), sel.Sel.Name)
				}
			}
			return true
		})
	}
}
