package shootout

import (
	"time"

	"crdtsmr/internal/core"
	"crdtsmr/internal/crdt"
	"crdtsmr/internal/transport"
	"crdtsmr/internal/wire"
)

// CRDTSpec races the paper's protocol with opts. A positive batch enables
// §3.6 batching on cluster.Node's cadence: each replica queues its ops per
// key and starts one protocol run per key and kind per window.
func CRDTSpec(opts core.Options, batch time.Duration) Spec {
	return Spec{Name: "crdtsmr", New: func(s *Sim, n int) (Backend, error) {
		return newCRDTBackend(s, n, opts, batch)
	}}
}

// crdtBackend races the paper's protocol: per-key log-free core.Replica
// rounds, multiplexed over one fabric connection per node with the same
// object-ID envelope cluster.Node uses. A periodic virtual timer drives
// RetransmitAll for loss recovery: on each tick the Sim re-drives every
// in-flight request, however young, where the node runtime's Tick
// re-drives only those already in flight at its previous tick.
type crdtBackend struct {
	sim   *Sim
	opts  core.Options
	batch time.Duration
	nodes []*crdtNode
	rtts  map[int]int // client reads answered, by the round trips their query took
}

type crdtNode struct {
	b       *crdtBackend
	id      transport.NodeID
	conn    transport.Conn
	members []transport.NodeID
	reps    map[string]*core.Replica
	keys    []string // insertion order: deterministic retransmit and flush sweeps
	seq     uint64   // or-set add tag sequence, unique per (actor, seq)
	down    bool
	open    []*crdtOp               // ops submitted here, oldest first; settled ones are trimmed lazily
	queued  [2]map[string][]*crdtOp // §3.6 batches per key: updates [0], queries [1]
}

// crdtOp is one client operation: an update when fu is set, else a query.
type crdtOp struct {
	fu      crdt.Update
	done    func(crdt.State, error)
	guard   *Timer
	settled bool
}

func (op *crdtOp) settle(st crdt.State, err error) {
	if op.settled {
		return
	}
	op.settled = true
	op.guard.Stop()
	op.done(st, err)
}

func newCRDTBackend(s *Sim, n int, opts core.Options, batch time.Duration) (Backend, error) {
	b := &crdtBackend{sim: s, opts: opts, batch: batch, rtts: make(map[int]int)}
	members := Members(n)
	for i, id := range members {
		node := &crdtNode{b: b, id: id, members: members, reps: make(map[string]*core.Replica)}
		node.queued = [2]map[string][]*crdtOp{make(map[string][]*crdtOp), make(map[string][]*crdtOp)}
		node.conn = s.Fab.Join(id, node.inbound)
		b.nodes = append(b.nodes, node)
		b.scheduleRetransmit(node)
		if batch > 0 {
			b.scheduleFlush(node, batch*time.Duration(i+1)/time.Duration(n), 0)
		}
	}
	return b, nil
}

func (b *crdtBackend) scheduleRetransmit(node *crdtNode) {
	b.sim.After(RetransmitEvery, func() {
		for _, key := range node.keys {
			if rep := node.reps[key]; !node.down && rep.InFlight() > 0 {
				rep.RetransmitAll()
				node.flush(key, rep)
			}
		}
		b.scheduleRetransmit(node)
	})
}

// scheduleFlush arms node's next batch flush of the given kind (updates 0,
// queries 1) on cluster.Node's cadence: the first flush, of updates, comes
// at batch·(i+1)/n for the i-th of n replicas, which de-phases the
// proposers, and then update and query flushes alternate every batch/2,
// so a node's queries never leave together with its own MERGEs.
func (b *crdtBackend) scheduleFlush(node *crdtNode, after time.Duration, kind int) {
	b.sim.After(after, func() {
		for _, key := range node.keys {
			if ops := node.queued[kind][key]; len(ops) > 0 && !node.down {
				delete(node.queued[kind], key)
				node.run(key, ops)
			}
		}
		b.scheduleFlush(node, b.batch/2, 1-kind)
	})
}

func (node *crdtNode) inbound(from transport.NodeID, payload []byte) {
	if node.down {
		return
	}
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
	rep, err := core.NewReplica(node.id, node.members, initialFor(key), node.b.opts)
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

// submit runs op at replica with the shared op-timeout guard: at once, or
// at its kind's next flush when batching.
func (b *crdtBackend) submit(replica int, key string, op *crdtOp) {
	node := b.nodes[replica]
	if node.down {
		op.done(nil, ErrCrashed)
		return
	}
	if _, err := node.replica(key); err != nil {
		op.done(nil, err)
		return
	}
	op.guard = b.sim.After(OpTimeout, func() { op.settle(nil, ErrOpTimeout) })
	for len(node.open) > 0 && node.open[0].settled {
		node.open = node.open[1:]
	}
	node.open = append(node.open, op)
	if b.batch > 0 {
		kind := 0
		if op.fu == nil {
			kind = 1
		}
		node.queued[kind][key] = append(node.queued[kind][key], op)
		return
	}
	node.run(key, []*crdtOp{op})
}

// run starts one protocol run for ops, all of one kind on key: a batch's
// updates apply in order as one update, and its queries share one query.
func (node *crdtNode) run(key string, ops []*crdtOp) {
	rep := node.reps[key]
	if ops[0].fu == nil {
		rep.SubmitQuery(func(st crdt.State, stats core.QueryStats, err error) {
			for _, op := range ops {
				if err == nil && !op.settled {
					node.b.rtts[stats.RoundTrips]++
				}
				op.settle(st, err)
			}
		})
	} else {
		settleAll := func(err error) {
			for _, op := range ops {
				op.settle(nil, err)
			}
		}
		_, err := rep.SubmitUpdate(func(st crdt.State) (crdt.State, error) {
			var err error
			for _, op := range ops {
				if st, err = op.fu(st); err != nil {
					return nil, err
				}
			}
			return st, nil
		}, func(_ core.UpdateStats, err error) { settleAll(err) })
		if err != nil {
			settleAll(err)
		}
	}
	node.flush(key, rep)
}

// Crash takes replica down for good, as cluster.Node's crash does: it
// drops inbound traffic, sends nothing more, and fails every op still open
// there, and every op submitted there later, with ErrCrashed.
func (b *crdtBackend) Crash(replica int) {
	node := b.nodes[replica]
	node.down = true
	open := node.open
	node.open = nil
	for _, op := range open {
		op.settle(nil, ErrCrashed)
	}
}

// TakeReadRTTs returns how many client reads each number of round trips
// answered since the last call.
func (b *crdtBackend) TakeReadRTTs() map[int]int {
	out := b.rtts
	b.rtts = make(map[int]int)
	return out
}

// Counters sums the protocol counters of every replica of every key.
func (b *crdtBackend) Counters() core.Counters {
	var sum core.Counters
	for _, node := range b.nodes {
		for _, key := range node.keys {
			sum.Add(node.reps[key].Counters())
		}
	}
	return sum
}

// Inc implements Backend.
func (b *crdtBackend) Inc(replica int, key string, done func(error)) {
	slot := string(b.nodes[replica].id)
	b.submit(replica, key, &crdtOp{
		fu: func(s crdt.State) (crdt.State, error) {
			return s.(*crdt.GCounter).Inc(slot, 1), nil
		},
		done: func(_ crdt.State, err error) { done(err) },
	})
}

// Read implements Backend.
func (b *crdtBackend) Read(replica int, key string, done func(int64, error)) {
	b.submit(replica, key, &crdtOp{done: func(s crdt.State, err error) {
		if err != nil {
			done(0, err)
			return
		}
		done(int64(s.(*crdt.GCounter).Value()), nil)
	}})
}

// AddElem implements Backend.
func (b *crdtBackend) AddElem(replica int, key, elem string, done func(error)) {
	node := b.nodes[replica]
	node.seq++
	actor, seq := string(node.id), node.seq
	b.submit(replica, key, &crdtOp{
		fu: func(s crdt.State) (crdt.State, error) {
			return s.(*crdt.ORSet).Add(elem, actor, seq), nil
		},
		done: func(_ crdt.State, err error) { done(err) },
	})
}

// Card implements Backend.
func (b *crdtBackend) Card(replica int, key string, done func(int64, error)) {
	b.submit(replica, key, &crdtOp{done: func(s crdt.State, err error) {
		if err != nil {
			done(0, err)
			return
		}
		done(int64(len(s.(*crdt.ORSet).Elements())), nil)
	}})
}
