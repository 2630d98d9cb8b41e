package shootout

import (
	"fmt"
	"strings"

	"crdtsmr/internal/gla"
	"crdtsmr/internal/transport"
)

// glaBackend races generalized lattice agreement (arXiv:1810.05871): every
// operation is a fresh unique command joined into the replicated CmdSet
// lattice; an operation completes when a learned value contains its
// command. Reads are read markers — the learned value that carries the
// marker is the linearization snapshot, and the counter value is the
// number of increment commands for that key inside it. Learned values form
// a chain (lattice agreement safety), so those snapshots are linearizable.
//
// Command syntax ("i"ncrement, "a"dd, "r"ead marker; node+seq make every
// command unique):
//
//	i:<key>:<node>:<seq>
//	a:<key>:<elem>:<node>:<seq>
//	r:<node>:<seq>
type glaBackend struct {
	fab   *transport.Fabric
	nodes []*glaNode
}

type glaNode struct {
	b       *glaBackend
	id      transport.NodeID
	rep     *gla.Replica
	conn    transport.Conn
	seq     uint64
	pending []*glaOp // completion scan order = submission order (determinism)
}

type glaOp struct {
	cmd     string
	settled bool
	fire    func(learned gla.CmdSet)
}

func newGLABackend(f *transport.Fabric, _ int64, n int) (Backend, error) {
	b := &glaBackend{fab: f}
	members := Members(n)
	for _, id := range members {
		node := &glaNode{b: b, id: id}
		rep, err := gla.NewReplica(id, members, node.onLearn)
		if err != nil {
			return nil, err
		}
		node.rep = rep
		node.conn = f.Join(id, func(from transport.NodeID, payload []byte) {
			node.rep.Deliver(from, payload)
			node.flush()
		})
		b.nodes = append(b.nodes, node)
		b.scheduleRetransmit(node)
	}
	return b, nil
}

func (b *glaBackend) scheduleRetransmit(node *glaNode) {
	b.fab.Schedule(RetransmitEvery, func() {
		if node.rep.InFlight() {
			node.rep.Retransmit()
			node.flush()
		}
		b.scheduleRetransmit(node)
	})
}

func (node *glaNode) flush() {
	for _, e := range node.rep.TakeOutbox() {
		node.conn.Send(e.To, e.Payload)
	}
}

func (node *glaNode) onLearn(val gla.CmdSet, _ uint64) {
	// Filter first, fire after: fire callbacks run closed-loop clients that
	// submit new ops synchronously, appending to node.pending — mutating it
	// mid-iteration would drop those ops on the floor.
	var fired []*glaOp
	kept := node.pending[:0]
	for _, op := range node.pending {
		if op.settled {
			continue
		}
		if _, ok := val[op.cmd]; ok {
			op.settled = true
			fired = append(fired, op)
			continue
		}
		kept = append(kept, op)
	}
	node.pending = kept
	for _, op := range fired {
		op.fire(val)
	}
}

// submit proposes cmd and schedules fire when some learned value includes
// it, with the shared op-timeout guard.
func (node *glaNode) submit(cmd string, fire func(gla.CmdSet), fail func(error)) {
	op := &glaOp{cmd: cmd, fire: fire}
	node.pending = append(node.pending, op)
	node.b.fab.Schedule(OpTimeout, func() {
		if !op.settled {
			op.settled = true
			fail(ErrOpTimeout) // the command may still be learned later
		}
	})
	node.rep.ReceiveValue(cmd)
	node.flush()
}

func (node *glaNode) nextSeq() uint64 {
	node.seq++
	return node.seq
}

// countIncs returns the counter value key takes in the learned snapshot.
func countIncs(val gla.CmdSet, key string) int64 {
	prefix := "i:" + key + ":"
	n := int64(0)
	for cmd := range val {
		if strings.HasPrefix(cmd, prefix) {
			n++
		}
	}
	return n
}

// countElems returns the distinct elements added to set key in the
// learned snapshot.
func countElems(val gla.CmdSet, key string) int64 {
	prefix := "a:" + key + ":"
	elems := make(map[string]struct{})
	for cmd := range val {
		rest, ok := strings.CutPrefix(cmd, prefix)
		if !ok {
			continue
		}
		if i := strings.Index(rest, ":"); i >= 0 {
			elems[rest[:i]] = struct{}{}
		}
	}
	return int64(len(elems))
}

// Inc implements Backend.
func (b *glaBackend) Inc(replica int, key string, done func(error)) {
	node := b.nodes[replica]
	cmd := fmt.Sprintf("i:%s:%s:%d", key, node.id, node.nextSeq())
	node.submit(cmd, func(gla.CmdSet) { done(nil) }, done)
}

// Read implements Backend.
func (b *glaBackend) Read(replica int, key string, done func(int64, error)) {
	node := b.nodes[replica]
	cmd := fmt.Sprintf("r:%s:%d", node.id, node.nextSeq())
	node.submit(cmd,
		func(val gla.CmdSet) { done(countIncs(val, key), nil) },
		func(err error) { done(0, err) })
}

// AddElem implements Backend.
func (b *glaBackend) AddElem(replica int, key, elem string, done func(error)) {
	node := b.nodes[replica]
	cmd := fmt.Sprintf("a:%s:%s:%s:%d", key, elem, node.id, node.nextSeq())
	node.submit(cmd, func(gla.CmdSet) { done(nil) }, done)
}

// Card implements Backend.
func (b *glaBackend) Card(replica int, key string, done func(int64, error)) {
	node := b.nodes[replica]
	cmd := fmt.Sprintf("r:%s:%d", node.id, node.nextSeq())
	node.submit(cmd,
		func(val gla.CmdSet) { done(countElems(val, key), nil) },
		func(err error) { done(0, err) })
}
