package shootout

import (
	"errors"
	"math/rand"
	"time"

	"crdtsmr/internal/paxos"
	"crdtsmr/internal/raft"
	"crdtsmr/internal/rsm"
	"crdtsmr/internal/transport"
)

// epoch anchors the virtual clock for protocol code that wants a
// time.Time (the Paxos lease logic). Virtual instant d maps to epoch+d.
var epoch = time.Unix(0, 0)

// logNode is the single-threaded virtual-time runtime of a log-based
// replica, driving either protocol through the same rsm.Replica interface:
// election timer with seeded jitter, heartbeat cadence, and outbox flushing
// after every replica interaction.
type logNode struct {
	fab   *transport.Fabric
	id    transport.NodeID
	rep   rsm.Replica
	rec   *rsm.Recorder
	store *rsm.Store
	conn  transport.Conn
	rng   *rand.Rand
	elect func() // stops the election timer
	down  bool
}

type logBackend struct {
	nodes []*logNode
}

func newPaxosBackend(f *transport.Fabric, seed int64, n int) (Backend, error) {
	return newLogBackend(f, seed, n, func(id transport.NodeID, members []transport.NodeID, sm rsm.StateMachine) (rsm.Replica, error) {
		rep, err := paxos.NewReplica(id, members, sm)
		if err != nil {
			return nil, err
		}
		rep.LeaseDuration = LeaseDuration
		return rep, nil
	})
}

func newRaftBackend(f *transport.Fabric, seed int64, n int) (Backend, error) {
	return newLogBackend(f, seed, n, func(id transport.NodeID, members []transport.NodeID, sm rsm.StateMachine) (rsm.Replica, error) {
		return raft.NewReplica(id, members, sm)
	})
}

func newLogBackend(f *transport.Fabric, seed int64, n int, mk func(transport.NodeID, []transport.NodeID, rsm.StateMachine) (rsm.Replica, error)) (Backend, error) {
	b := &logBackend{}
	members := Members(n)
	// A stream apart from the fabric's keeps election jitter decoupled
	// from message-delay draws.
	seeds := rand.New(rand.NewSource(seed ^ 0x5f00d))
	for _, id := range members {
		store := rsm.NewStore()
		rec := rsm.NewRecorder(store)
		rep, err := mk(id, members, rec)
		if err != nil {
			return nil, err
		}
		node := &logNode{
			fab:   f,
			id:    id,
			rep:   rep,
			rec:   rec,
			store: store,
			rng:   rand.New(rand.NewSource(seeds.Int63())),
		}
		node.conn = f.Join(id, func(from transport.NodeID, payload []byte) {
			if node.down {
				return
			}
			if node.rep.Deliver(from, payload, epoch.Add(f.Now())) {
				node.resetElection()
			}
			node.flush()
		})
		b.nodes = append(b.nodes, node)
		node.resetElection()
		node.scheduleHeartbeat()
	}
	return b, nil
}

func (n *logNode) flush() {
	if n.down {
		return
	}
	for _, e := range n.rep.TakeOutbox() {
		n.conn.Send(e.To, e.Payload)
	}
}

func (n *logNode) resetElection() {
	if n.elect != nil {
		n.elect()
	}
	d := ElectionTimeout + time.Duration(n.rng.Int63n(int64(ElectionTimeout)))
	n.elect = n.fab.Schedule(d, func() {
		if !n.down {
			n.rep.ElectionTimeout(epoch.Add(n.fab.Now()))
			n.rep.FailForwards()
			n.flush()
		}
		n.resetElection()
	})
}

func (n *logNode) scheduleHeartbeat() {
	n.fab.Schedule(HeartbeatInterval, func() {
		if !n.down {
			n.rep.HeartbeatTick(epoch.Add(n.fab.Now()))
			n.flush()
		}
		n.scheduleHeartbeat()
	})
}

// execute drives one client operation with the node-runtime retry
// discipline, adapted to the write-safety rule the conformance harness
// needs: a write attempt is retried internally only while nothing has been
// transmitted for it (a synchronous ErrNoLeader, e.g. before the first
// election); once a write has been proposed or forwarded, any failure or
// try-timeout surfaces to the caller, because the command may still
// commit. Reads have no effects and retry freely until the op deadline.
func (n *logNode) execute(cmd []byte, read bool, done func([]byte, error)) {
	deadline := n.fab.Now() + OpTimeout
	n.attempt(cmd, read, deadline, done)
}

func (n *logNode) attempt(cmd []byte, read bool, deadline time.Duration, done func([]byte, error)) {
	if n.down {
		done(nil, ErrCrashed)
		return
	}
	if read {
		if res, ok := n.rep.ReadLocal(epoch.Add(n.fab.Now()), cmd); ok {
			done(res, nil)
			return
		}
	}
	var (
		settled  bool
		guard    = func() {} // stops the try timer
		sync     = true
		syncErr  error
		syncRes  []byte
		syncDone bool
	)
	retryLater := func() {
		backoff := HeartbeatInterval
		if n.fab.Now()+backoff >= deadline {
			done(nil, ErrOpTimeout)
			return
		}
		n.fab.Schedule(backoff, func() { n.attempt(cmd, read, deadline, done) })
	}
	handle := func(res []byte, err error) {
		if settled {
			return
		}
		settled = true
		guard()
		if err == nil {
			done(res, nil)
			return
		}
		if read && n.fab.Now() < deadline {
			retryLater() // reads are effect-free: always safe to retry
			return
		}
		done(nil, err)
	}
	submit := func(res []byte, err error) {
		if sync {
			syncDone, syncRes, syncErr = true, res, err
			return
		}
		handle(res, err)
	}
	if read {
		n.rep.ProposeRead(cmd, submit)
	} else {
		n.rep.Propose(cmd, submit)
	}
	sync = false
	n.flush()
	if syncDone {
		// The callback fired inside propose: nothing was transmitted for
		// this attempt, so even a write is safe to retry.
		var transient rsm.Transient
		if errors.As(syncErr, &transient) {
			retryLater()
			return
		}
		done(syncRes, syncErr)
		return
	}
	guard = n.fab.Schedule(2*ElectionTimeout, func() {
		if settled {
			return
		}
		settled = true
		if read && n.fab.Now() < deadline {
			retryLater()
			return
		}
		done(nil, ErrOpTimeout) // in-flight write: fate unknown
	})
}

// Crash takes replica down for good: it drops inbound traffic, its timers
// stop acting, rsm.Replica.Crash fails what it had in flight, and ops
// submitted there later fail with ErrCrashed.
func (b *logBackend) Crash(replica int) {
	node := b.nodes[replica]
	node.down = true
	node.rep.Crash()
}

// Inc implements Backend.
func (b *logBackend) Inc(replica int, key string, done func(error)) {
	b.nodes[replica].execute(rsm.EncodeIncKey(key, 1), false, func(_ []byte, err error) {
		done(err)
	})
}

// Read implements Backend.
func (b *logBackend) Read(replica int, key string, done func(int64, error)) {
	b.nodes[replica].execute(rsm.EncodeReadKey(key), true, func(res []byte, err error) {
		if err != nil {
			done(0, err)
			return
		}
		v, err := rsm.DecodeValue(res)
		done(v, err)
	})
}

// AddElem implements Backend.
func (b *logBackend) AddElem(replica int, key, elem string, done func(error)) {
	b.nodes[replica].execute(rsm.EncodeAddKey(key, elem), false, func(_ []byte, err error) {
		done(err)
	})
}

// Card implements Backend.
func (b *logBackend) Card(replica int, key string, done func(int64, error)) {
	b.nodes[replica].execute(rsm.EncodeCardKey(key), true, func(res []byte, err error) {
		if err != nil {
			done(0, err)
			return
		}
		v, err := rsm.DecodeValue(res)
		done(v, err)
	})
}

// AppliedLog implements AppliedLogger.
func (b *logBackend) AppliedLog(replica int) []string {
	return b.nodes[replica].rec.Log()
}
