package core

import (
	"testing"
	"testing/quick"

	"crdtsmr/internal/crdt"
	"crdtsmr/internal/transport"
)

func inc(replica string) crdt.Update {
	return func(s crdt.State) (crdt.State, error) {
		return s.(*crdt.GCounter).Inc(replica, 1), nil
	}
}

func TestAcceptorInitialState(t *testing.T) {
	a := newAcceptor(crdt.NewGCounter())
	if a.round != initRound() {
		t.Fatalf("round = %v", a.round)
	}
	if got := a.state.(*crdt.GCounter).Value(); got != 0 {
		t.Fatalf("value = %d", got)
	}
}

func TestAcceptorApplyUpdateSetsWriteMarker(t *testing.T) {
	a := newAcceptor(crdt.NewGCounter())
	s, err := a.applyUpdate(inc("n1"), Round{})
	if err != nil {
		t.Fatal(err)
	}
	if got := s.(*crdt.GCounter).Value(); got != 1 {
		t.Fatalf("returned value = %d", got)
	}
	if a.round.ID != writeID {
		t.Fatalf("round ID = %v, want write marker", a.round.ID)
	}
	if a.round.Number != 0 {
		t.Fatalf("round number changed to %d", a.round.Number)
	}
}

func TestAcceptorMergeSetsWriteMarker(t *testing.T) {
	nw := newNet(t, 3, DefaultOptions())
	n1, n2 := nw.reps["n1"], nw.reps["n2"]
	if _, err := n1.SubmitUpdate(inc("x"), nil); err != nil {
		t.Fatal(err)
	}
	nw.pump()
	nw.deliver(func(e env) bool { return e.typ == msgMerge && e.to == "n2" })
	if got := n2.acc.state.(*crdt.GCounter).Value(); got != 1 {
		t.Fatalf("value = %d", got)
	}
	if n2.acc.round.ID != writeID {
		t.Fatal("merge must clobber the round ID")
	}
}

func TestAcceptorIncrementalPrepareAlwaysAccepted(t *testing.T) {
	a := newAcceptor(crdt.NewGCounter())
	id := RoundID{Proposer: "p1", Seq: 7}
	reply, round, _, err := a.handlePrepare(Round{Number: NumberIncremental, ID: id}, nil)
	if err != nil || reply != msgAck {
		t.Fatalf("reply = %v, err = %v", reply, err)
	}
	if round.Number != 1 || round.ID != id {
		t.Fatalf("round = %v, want (1, p1#7)", round)
	}
	// Again: the number keeps growing, so it is always accepted.
	id2 := RoundID{Proposer: "p2", Seq: 1}
	reply, round, _, err = a.handlePrepare(Round{Number: NumberIncremental, ID: id2}, nil)
	if err != nil || reply != msgAck || round.Number != 2 || round.ID != id2 {
		t.Fatalf("second incremental: reply=%v round=%v err=%v", reply, round, err)
	}
}

func TestAcceptorFixedPrepareRules(t *testing.T) {
	a := newAcceptor(crdt.NewGCounter())
	high := Round{Number: 5, ID: RoundID{Proposer: "p1", Seq: 1}}
	reply, round, _, _ := a.handlePrepare(high, nil)
	if reply != msgAck || round != high {
		t.Fatalf("high fixed prepare: reply=%v round=%v", reply, round)
	}
	// A lower number is rejected; the NACK carries the current round.
	low := Round{Number: 3, ID: RoundID{Proposer: "p2", Seq: 1}}
	reply, round, state, _ := a.handlePrepare(low, nil)
	if reply != msgNack {
		t.Fatalf("low fixed prepare accepted")
	}
	if round != high {
		t.Fatalf("NACK round = %v, want %v", round, high)
	}
	if state == nil {
		t.Fatal("NACK must carry the acceptor state")
	}
	// The same number is rejected too (strictly greater required)...
	same := Round{Number: 5, ID: RoundID{Proposer: "p2", Seq: 9}}
	if reply, _, _, _ := a.handlePrepare(same, nil); reply != msgNack {
		t.Fatal("equal-number fixed prepare from another proposer accepted")
	}
	// ...except for the exact current round (idempotent retransmit).
	if reply, _, _, _ := a.handlePrepare(high, nil); reply != msgAck {
		t.Fatal("retransmitted identical prepare should be re-acked")
	}
}

func TestAcceptorPrepareMergesSeed(t *testing.T) {
	a := newAcceptor(crdt.NewGCounter())
	seed := crdt.NewGCounter().Inc("x", 3)
	_, _, state, err := a.handlePrepare(Round{Number: NumberIncremental, ID: RoundID{Proposer: "p", Seq: 1}}, seed)
	if err != nil {
		t.Fatal(err)
	}
	if got := state.(*crdt.GCounter).Value(); got != 3 {
		t.Fatalf("ACK state = %d, want 3 (seed merged)", got)
	}
	// Merging a prepare seed must NOT clobber the round ID (only updates do).
	if a.round.ID == writeID {
		t.Fatal("prepare seed set the write marker")
	}
}

func TestAcceptorVoteRoundEquality(t *testing.T) {
	a := newAcceptor(crdt.NewGCounter())
	id := RoundID{Proposer: "p1", Seq: 1}
	_, round, _, _ := a.handlePrepare(Round{Number: NumberIncremental, ID: id}, nil)

	// Vote with the exact round succeeds.
	proposal := crdt.NewGCounter().Inc("y", 2)
	reply, _, _, err := a.handleVote(round, proposal)
	if err != nil || reply != msgVoted {
		t.Fatalf("vote denied: %v, %v", reply, err)
	}
	// The proposal was merged before replying (Lemma 3.4(ii)).
	if got := a.state.(*crdt.GCounter).Value(); got != 2 {
		t.Fatalf("state after vote = %d, want 2", got)
	}

	// An update intervenes; the same round must now be denied (line 45).
	if _, err := a.applyUpdate(inc("n1"), Round{}); err != nil {
		t.Fatal(err)
	}
	reply, nackRound, nackState, _ := a.handleVote(round, proposal)
	if reply != msgVoted && reply != msgNack {
		t.Fatalf("unexpected reply %v", reply)
	}
	if reply != msgNack {
		t.Fatal("vote after intervening update must be denied")
	}
	if nackRound.ID != writeID {
		t.Fatalf("NACK round = %v, want write marker", nackRound)
	}
	if nackState == nil {
		t.Fatal("vote NACK must carry the acceptor state")
	}
}

func TestAcceptorVoteMergesEvenWhenDenied(t *testing.T) {
	a := newAcceptor(crdt.NewGCounter())
	wrong := Round{Number: 9, ID: RoundID{Proposer: "p9", Seq: 9}}
	proposal := crdt.NewGCounter().Inc("z", 4)
	reply, _, _, err := a.handleVote(wrong, proposal)
	if err != nil || reply != msgNack {
		t.Fatalf("reply = %v, err = %v", reply, err)
	}
	if got := a.state.(*crdt.GCounter).Value(); got != 4 {
		t.Fatalf("state = %d: line 44 merges the proposal before the round check", got)
	}
}

func TestAcceptorStateMonotone(t *testing.T) {
	// Lemma 3.2: the acceptor payload only grows, whatever mix of
	// operations is applied.
	f := func(ops []uint8) bool {
		a := newAcceptor(crdt.NewGCounter())
		prev := a.state
		seq := uint64(0)
		for _, op := range ops {
			seq++
			switch op % 4 {
			case 0:
				_, _ = a.applyUpdate(inc("n1"), Round{})
			case 1:
				_ = a.join(crdt.NewGCounter().Inc("m", uint64(op)))
				a.clobberRound(Round{})
			case 2:
				_, _, _, _ = a.handlePrepare(Round{Number: NumberIncremental, ID: RoundID{Proposer: "p", Seq: seq}}, crdt.NewGCounter().Inc("s", uint64(op)))
			case 3:
				_, _, _, _ = a.handleVote(Round{Number: int64(op), ID: RoundID{Proposer: "q", Seq: seq}}, crdt.NewGCounter().Inc("v", uint64(op)))
			}
			le, err := prev.Compare(a.state)
			if err != nil || !le {
				return false
			}
			prev = a.state
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestAcceptorRoundNumberMonotone(t *testing.T) {
	// Invariant I4's precondition: prepares only ever raise the number.
	f := func(nums []int16) bool {
		a := newAcceptor(crdt.NewGCounter())
		prev := a.round.Number
		for i, n := range nums {
			r := Round{Number: int64(n), ID: RoundID{Proposer: "p", Seq: uint64(i + 1)}}
			if n < 0 {
				r.Number = NumberIncremental
			}
			_, _, _, _ = a.handlePrepare(r, nil)
			if a.round.Number < prev {
				return false
			}
			prev = a.round.Number
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestRoundOrdering(t *testing.T) {
	cases := []struct {
		a, b Round
		less bool
	}{
		{Round{Number: 1, ID: RoundID{"p", 1}}, Round{Number: 2, ID: RoundID{"p", 1}}, true},
		{Round{Number: 2, ID: RoundID{"p", 1}}, Round{Number: 1, ID: RoundID{"p", 1}}, false},
		{Round{Number: 1, ID: RoundID{"a", 1}}, Round{Number: 1, ID: RoundID{"b", 1}}, true},
		{Round{Number: 1, ID: RoundID{"a", 1}}, Round{Number: 1, ID: RoundID{"a", 2}}, true},
		{Round{Number: 1, ID: RoundID{"a", 2}}, Round{Number: 1, ID: RoundID{"a", 2}}, false},
	}
	for i, c := range cases {
		if got := c.a.Less(c.b); got != c.less {
			t.Errorf("case %d: %v < %v = %t, want %t", i, c.a, c.b, got, c.less)
		}
	}
	if !(Round{Number: NumberIncremental}).Incremental() {
		t.Fatal("⊥ round not incremental")
	}
	if (Round{Number: 0}).Incremental() {
		t.Fatal("round 0 reported incremental")
	}
}

func TestMessageCodecRoundTrip(t *testing.T) {
	states := []crdt.State{nil, crdt.NewGCounter().Inc("a", 3)}
	for _, typ := range []msgType{msgMerge, msgMerged, msgPrepare, msgAck, msgVote, msgVoted, msgNack} {
		for _, s := range states {
			in := &message{
				Type:    typ,
				Req:     12345,
				Attempt: 7,
				Round:   Round{Number: 42, ID: RoundID{Proposer: "px", Seq: 9}},
				State:   s,
			}
			raw, err := in.encode()
			if err != nil {
				t.Fatalf("%v: %v", typ, err)
			}
			out, err := decodeMessage(raw)
			if err != nil {
				t.Fatalf("%v: %v", typ, err)
			}
			if out.Type != in.Type || out.Req != in.Req || out.Attempt != in.Attempt || out.Round != in.Round {
				t.Fatalf("%v: fields changed: %+v vs %+v", typ, in, out)
			}
			if (out.State == nil) != (in.State == nil) {
				t.Fatalf("%v: state presence changed", typ)
			}
			if in.State != nil {
				eq, err := crdt.Equivalent(in.State, out.State)
				if err != nil || !eq {
					t.Fatalf("%v: state not equivalent after round trip", typ)
				}
			}
		}
	}
}

func TestMessageDecodeRejectsGarbage(t *testing.T) {
	if _, err := decodeMessage(nil); err == nil {
		t.Fatal("nil decoded")
	}
	if _, err := decodeMessage([]byte{0}); err == nil {
		t.Fatal("zero type decoded")
	}
	if _, err := decodeMessage([]byte{99, 0, 0, 0, 0, 0, 0}); err == nil {
		t.Fatal("unknown type decoded")
	}
	m := &message{Type: msgAck, Round: Round{Number: 1, ID: RoundID{Proposer: "p", Seq: 1}}, State: crdt.NewGCounter()}
	raw, err := m.encode()
	if err != nil {
		t.Fatal(err)
	}
	for cut := 1; cut < len(raw); cut++ {
		if _, err := decodeMessage(raw[:cut]); err == nil {
			t.Fatalf("truncation at %d decoded", cut)
		}
	}
	if _, err := decodeMessage(append(raw, 0xAB)); err == nil {
		t.Fatal("trailing byte accepted")
	}
}

func TestQuickRoundCodec(t *testing.T) {
	f := func(num int64, prop string, seq uint64) bool {
		in := Round{Number: num, ID: RoundID{Proposer: transport.NodeID(prop), Seq: seq}}
		m := &message{Type: msgMerged, Round: in}
		raw, err := m.encode()
		if err != nil {
			return false
		}
		out, err := decodeMessage(raw)
		return err == nil && out.Round == in
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}
