package gla

import (
	"fmt"
	"testing"

	"crdtsmr/internal/transport"
)

type gnet struct {
	t    *testing.T
	reps map[transport.NodeID]*Replica
	pool []genv
}

type genv struct {
	from, to transport.NodeID
	payload  []byte
}

func newGNet(t *testing.T, n int, onLearn map[transport.NodeID]LearnedFn) *gnet {
	t.Helper()
	members := make([]transport.NodeID, n)
	for i := range members {
		members[i] = transport.NodeID(fmt.Sprintf("n%d", i+1))
	}
	nw := &gnet{t: t, reps: make(map[transport.NodeID]*Replica, n)}
	for _, id := range members {
		rep, err := NewReplica(id, members, onLearn[id])
		if err != nil {
			t.Fatal(err)
		}
		nw.reps[id] = rep
	}
	return nw
}

func (nw *gnet) pump() {
	for _, rep := range nw.reps {
		for _, e := range rep.TakeOutbox() {
			nw.pool = append(nw.pool, genv{from: rep.ID(), to: e.To, payload: e.Payload})
		}
	}
}

func (nw *gnet) drain() {
	for len(nw.pool) > 0 {
		e := nw.pool[0]
		nw.pool = nw.pool[1:]
		nw.reps[e.to].Deliver(e.from, e.payload)
		nw.pump()
	}
}

func TestSingleProposerLearns(t *testing.T) {
	var learned []CmdSet
	nw := newGNet(t, 3, map[transport.NodeID]LearnedFn{
		"n1": func(v CmdSet, seq uint64) { learned = append(learned, v) },
	})
	nw.reps["n1"].ReceiveValue("a")
	nw.pump()
	nw.drain()
	if len(learned) != 1 {
		t.Fatalf("learned %d values, want 1", len(learned))
	}
	if !learned[0].Includes(NewCmdSet("a")) {
		t.Fatalf("learned %v, want {a}", learned[0].Elements())
	}
}

func TestConcurrentProposersConverge(t *testing.T) {
	learned := map[transport.NodeID][]CmdSet{}
	fns := map[transport.NodeID]LearnedFn{}
	for _, id := range []transport.NodeID{"n1", "n2", "n3"} {
		id := id
		fns[id] = func(v CmdSet, seq uint64) { learned[id] = append(learned[id], v) }
	}
	nw := newGNet(t, 3, fns)
	nw.reps["n1"].ReceiveValue("a")
	nw.reps["n2"].ReceiveValue("b")
	nw.reps["n3"].ReceiveValue("c")
	nw.pump()
	nw.drain()

	// Every learned value pair must be comparable (lattice agreement).
	var all []CmdSet
	for _, vs := range learned {
		all = append(all, vs...)
	}
	if len(all) < 3 {
		t.Fatalf("only %d values learned", len(all))
	}
	for i := 0; i < len(all); i++ {
		for j := i + 1; j < len(all); j++ {
			if !all[i].Includes(all[j]) && !all[j].Includes(all[i]) {
				t.Fatalf("incomparable learned values: %v vs %v", all[i].Elements(), all[j].Elements())
			}
		}
	}
}

func TestMessageSizesGrowWithCommands(t *testing.T) {
	// The ablation's core observation: GLA coordination bytes grow with
	// the command history, CRDT Paxos's do not.
	nw := newGNet(t, 3, map[transport.NodeID]LearnedFn{})
	rep := nw.reps["n1"]
	var sizes []uint64
	prev := uint64(0)
	for i := 0; i < 50; i++ {
		rep.ReceiveValue(fmt.Sprintf("cmd-%04d", i))
		nw.pump()
		nw.drain()
		sizes = append(sizes, rep.BytesSent-prev)
		prev = rep.BytesSent
	}
	if sizes[len(sizes)-1] <= sizes[0]*2 {
		t.Fatalf("expected message growth, got first=%d last=%d", sizes[0], sizes[len(sizes)-1])
	}
}

func TestCmdSetOps(t *testing.T) {
	a := NewCmdSet("x", "y")
	b := NewCmdSet("y", "z")
	u := a.Union(b)
	if len(u) != 3 || !u.Includes(a) || !u.Includes(b) {
		t.Fatalf("union = %v", u.Elements())
	}
	if a.Includes(b) || b.Includes(a) {
		t.Fatal("incomparable sets reported comparable")
	}
	if got := u.Elements(); got[0] != "x" || got[2] != "z" {
		t.Fatalf("elements = %v", got)
	}
}

func TestCodec(t *testing.T) {
	in := &message{Type: mPropose, Seq: 9, Val: NewCmdSet("a", "b")}
	out, err := decodeMessage(in.encode())
	if err != nil {
		t.Fatal(err)
	}
	if out.Seq != 9 || !out.Val.Includes(in.Val) {
		t.Fatalf("round trip mangled: %+v", out)
	}
	if _, err := decodeMessage(nil); err == nil {
		t.Fatal("nil decoded")
	}
}

func TestReplicaValidation(t *testing.T) {
	if _, err := NewReplica("zz", []transport.NodeID{"a"}, nil); err == nil {
		t.Fatal("id outside members accepted")
	}
}

func TestDuplicateAckDoesNotFakeQuorum(t *testing.T) {
	members := []transport.NodeID{"n1", "n2", "n3", "n4", "n5"}
	learned := 0
	rep, err := NewReplica("n1", members, func(CmdSet, uint64) { learned++ })
	if err != nil {
		t.Fatal(err)
	}
	rep.ReceiveValue("a")
	rep.TakeOutbox()
	ack := (&message{Type: mAcceptAck, Seq: 1}).encode()
	rep.Deliver("n2", ack)
	rep.Deliver("n2", ack) // duplicated reply must not count twice
	if !rep.InFlight() || learned != 0 {
		t.Fatal("duplicated ack faked a quorum (2 of 5 distinct acceptors)")
	}
	rep.Deliver("n3", ack) // self + n2 + n3 = quorum of 3
	if rep.InFlight() || learned != 1 {
		t.Fatalf("distinct quorum did not learn: inflight=%v learned=%d", rep.InFlight(), learned)
	}
}

// TestSubsetProposalIsRejected pins the acceptor rule to "ack iff proposal
// includes accepted". Acking the subset direction is unsafe: under message
// duplication a NACKed proposal gets re-delivered after the NACK union made
// it a subset, acks, and an incomparable value can reach quorum.
func TestSubsetProposalIsRejected(t *testing.T) {
	members := []transport.NodeID{"n1", "n2", "n3"}
	rep, err := NewReplica("n1", members, nil)
	if err != nil {
		t.Fatal(err)
	}
	rep.Deliver("n2", (&message{Type: mPropose, Seq: 1, Val: NewCmdSet("x", "y")}).encode())
	out := rep.TakeOutbox()
	if len(out) != 1 {
		t.Fatalf("outbox = %d messages", len(out))
	}
	if m, _ := decodeMessage(out[0].Payload); m.Type != mAcceptAck {
		t.Fatalf("superset proposal answered %d, want ack", m.Type)
	}
	rep.Deliver("n3", (&message{Type: mPropose, Seq: 1, Val: NewCmdSet("x")}).encode())
	out = rep.TakeOutbox()
	m, _ := decodeMessage(out[0].Payload)
	if m.Type != mRejectNack {
		t.Fatal("strict subset proposal was acked")
	}
	if !m.Val.Includes(NewCmdSet("x", "y")) {
		t.Fatalf("nack carried %v, want the full accepted value", m.Val.Elements())
	}
}

// glaFabric wires n replicas into a transport.Fabric, flushing outboxes
// after every injection and delivery.
type glaFabric struct {
	fab   *transport.Fabric
	ids   []transport.NodeID
	reps  map[transport.NodeID]*Replica
	conns map[transport.NodeID]transport.Conn
}

func newGLAFabric(t *testing.T, n int, seed int64, onLearn func(transport.NodeID, CmdSet)) *glaFabric {
	t.Helper()
	g := &glaFabric{
		fab:   transport.NewFabric(seed),
		reps:  make(map[transport.NodeID]*Replica),
		conns: make(map[transport.NodeID]transport.Conn),
	}
	members := make([]transport.NodeID, n)
	for i := range members {
		members[i] = transport.NodeID(fmt.Sprintf("n%d", i+1))
	}
	g.ids = members
	for _, id := range members {
		id := id
		var fn LearnedFn
		if onLearn != nil {
			fn = func(v CmdSet, _ uint64) { onLearn(id, v) }
		}
		rep, err := NewReplica(id, members, fn)
		if err != nil {
			t.Fatal(err)
		}
		g.reps[id] = rep
		g.conns[id] = g.fab.Join(id, func(from transport.NodeID, p []byte) {
			g.reps[id].Deliver(from, p)
			g.flush(id)
		})
	}
	return g
}

func (g *glaFabric) flush(id transport.NodeID) {
	for _, e := range g.reps[id].TakeOutbox() {
		g.conns[id].Send(e.To, e.Payload)
	}
}

func (g *glaFabric) flushAll() {
	for _, id := range g.ids {
		g.flush(id)
	}
}

// retransmitDrain alternates fabric steps with retransmissions until no
// replica has a proposal in flight.
func (g *glaFabric) retransmitDrain(t *testing.T, bound int) {
	t.Helper()
	for i := 0; i < bound; i++ {
		if g.fab.Step() {
			continue
		}
		active := false
		for _, id := range g.ids {
			if g.reps[id].InFlight() {
				g.reps[id].Retransmit()
				g.flush(id)
				active = true
			}
		}
		if !active {
			return
		}
	}
	t.Fatal("replicas still in flight after drain bound")
}

func TestRetransmitRecoversFromTotalLoss(t *testing.T) {
	learned := 0
	g := newGLAFabric(t, 3, 5, func(id transport.NodeID, v CmdSet) {
		if id == "n1" && v.Includes(NewCmdSet("a")) {
			learned++
		}
	})
	g.fab.SetLoss(1.0)
	g.reps["n1"].ReceiveValue("a")
	g.flushAll()
	g.fab.Drain(100)
	if learned != 0 {
		t.Fatal("learned through a fully lossy network")
	}
	g.fab.SetLoss(0)
	g.reps["n1"].Retransmit()
	g.flushAll()
	g.fab.Drain(100)
	if learned == 0 {
		t.Fatal("retransmission did not recover the lost proposal")
	}
}

// TestLatticeAgreementUnderLossAndDuplication is the safety property test:
// across seeds, with 20% loss and 20% duplication, every pair of learned
// values must be comparable and every proposer must learn all its own
// commands.
func TestLatticeAgreementUnderLossAndDuplication(t *testing.T) {
	for seed := int64(1); seed <= 25; seed++ {
		var all []CmdSet
		byNode := map[transport.NodeID]CmdSet{}
		g := newGLAFabric(t, 3, seed, func(id transport.NodeID, v CmdSet) {
			all = append(all, v)
			byNode[id] = v // learned values at one node form a chain; keep the latest
		})
		g.fab.SetLoss(0.2)
		g.fab.SetDuplication(0.2)
		want := map[transport.NodeID]CmdSet{}
		for i, id := range g.ids {
			cmds := NewCmdSet(
				fmt.Sprintf("cmd-%d-0", i),
				fmt.Sprintf("cmd-%d-1", i),
			)
			want[id] = cmds
			for _, c := range cmds.Elements() {
				g.reps[id].ReceiveValue(c)
			}
			g.flush(id)
		}
		g.retransmitDrain(t, 100000)
		for i := 0; i < len(all); i++ {
			for j := i + 1; j < len(all); j++ {
				if !all[i].Includes(all[j]) && !all[j].Includes(all[i]) {
					t.Fatalf("seed %d: incomparable learned values %v vs %v",
						seed, all[i].Elements(), all[j].Elements())
				}
			}
		}
		for id, cmds := range want {
			if !byNode[id].Includes(cmds) {
				t.Fatalf("seed %d: %s never learned its own commands %v (last learned %v)",
					seed, id, cmds.Elements(), byNode[id].Elements())
			}
		}
	}
}
