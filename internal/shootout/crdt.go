package shootout

import (
	"crdtsmr/internal/core"
	"crdtsmr/internal/crdt"
	"crdtsmr/internal/transport"
	"crdtsmr/internal/wire"
)

// crdtBackend races the paper's protocol: per-key log-free core.Replica
// rounds, multiplexed over one fabric connection per node with the same
// object-ID envelope cluster.Node uses. A periodic virtual timer drives
// RetransmitAll for loss recovery, mirroring the node runtime.
type crdtBackend struct {
	sim   *Sim
	nodes []*crdtNode
}

type crdtNode struct {
	b       *crdtBackend
	id      transport.NodeID
	conn    transport.Conn
	members []transport.NodeID
	reps    map[string]*core.Replica
	keys    []string // insertion order: deterministic retransmit sweep
	seq     uint64   // or-set add tag sequence, unique per (actor, seq)
}

func newCRDTBackend(s *Sim, n int) (Backend, error) {
	b := &crdtBackend{sim: s}
	members := Members(n)
	for _, id := range members {
		node := &crdtNode{b: b, id: id, members: members, reps: make(map[string]*core.Replica)}
		node.conn = s.Fab.Join(id, node.inbound)
		b.nodes = append(b.nodes, node)
		b.scheduleRetransmit(node)
	}
	return b, nil
}

func (b *crdtBackend) scheduleRetransmit(node *crdtNode) {
	b.sim.After(RetransmitEvery, func() {
		for _, key := range node.keys {
			if rep := node.reps[key]; rep.InFlight() > 0 {
				rep.RetransmitAll()
				node.flush(key, rep)
			}
		}
		b.scheduleRetransmit(node)
	})
}

func (node *crdtNode) inbound(from transport.NodeID, payload []byte) {
	key, inner, err := wire.UnpackEnvelope(payload)
	if err != nil {
		return
	}
	rep, err := node.replica(key)
	if err != nil {
		return
	}
	rep.Deliver(from, inner)
	node.flush(key, rep)
}

// initialFor picks the object type by key prefix, the same convention the
// server layer uses: 's…' keys are or-sets, everything else a g-counter.
func initialFor(key string) crdt.State {
	if len(key) > 0 && key[0] == 's' {
		return crdt.NewORSet()
	}
	return crdt.NewGCounter()
}

func (node *crdtNode) replica(key string) (*core.Replica, error) {
	if rep, ok := node.reps[key]; ok {
		return rep, nil
	}
	rep, err := core.NewReplica(node.id, node.members, initialFor(key), core.DefaultOptions())
	if err != nil {
		return nil, err
	}
	node.reps[key] = rep
	node.keys = append(node.keys, key)
	return rep, nil
}

func (node *crdtNode) flush(key string, rep *core.Replica) {
	for _, e := range rep.TakeOutbox() {
		node.conn.Send(e.To, wire.PackEnvelope(key, e.Payload))
	}
}

// submitUpdate runs one mutation with the shared op-timeout guard.
func (b *crdtBackend) submitUpdate(replica int, key string, fu crdt.Update, done func(error)) {
	node := b.nodes[replica]
	rep, err := node.replica(key)
	if err != nil {
		done(err)
		return
	}
	settled := false
	guard := b.sim.After(OpTimeout, func() {
		if !settled {
			settled = true
			done(ErrOpTimeout)
		}
	})
	_, err = rep.SubmitUpdate(fu, func(_ core.UpdateStats, err error) {
		if settled {
			return
		}
		settled = true
		guard.Stop()
		done(err)
	})
	if err != nil && !settled {
		settled = true
		guard.Stop()
		done(err)
	}
	node.flush(key, rep)
}

func (b *crdtBackend) submitQuery(replica int, key string, read func(crdt.State) int64, done func(int64, error)) {
	node := b.nodes[replica]
	rep, err := node.replica(key)
	if err != nil {
		done(0, err)
		return
	}
	settled := false
	guard := b.sim.After(OpTimeout, func() {
		if !settled {
			settled = true
			done(0, ErrOpTimeout)
		}
	})
	rep.SubmitQuery(func(st crdt.State, _ core.QueryStats, err error) {
		if settled {
			return
		}
		settled = true
		guard.Stop()
		if err != nil {
			done(0, err)
			return
		}
		done(read(st), nil)
	})
	node.flush(key, rep)
}

// Inc implements Backend.
func (b *crdtBackend) Inc(replica int, key string, done func(error)) {
	slot := string(b.nodes[replica].id)
	b.submitUpdate(replica, key, func(s crdt.State) (crdt.State, error) {
		return s.(*crdt.GCounter).Inc(slot, 1), nil
	}, done)
}

// Read implements Backend.
func (b *crdtBackend) Read(replica int, key string, done func(int64, error)) {
	b.submitQuery(replica, key, func(s crdt.State) int64 {
		return int64(s.(*crdt.GCounter).Value())
	}, done)
}

// AddElem implements Backend.
func (b *crdtBackend) AddElem(replica int, key, elem string, done func(error)) {
	node := b.nodes[replica]
	node.seq++
	actor, seq := string(node.id), node.seq
	b.submitUpdate(replica, key, func(s crdt.State) (crdt.State, error) {
		return s.(*crdt.ORSet).Add(elem, actor, seq), nil
	}, done)
}

// Card implements Backend.
func (b *crdtBackend) Card(replica int, key string, done func(int64, error)) {
	b.submitQuery(replica, key, func(s crdt.State) int64 {
		return int64(len(s.(*crdt.ORSet).Elements()))
	}, done)
}
