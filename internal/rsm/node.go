package rsm

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"crdtsmr/internal/clock"
	"crdtsmr/internal/transport"
)

// ErrStopped is returned for commands submitted to a closed node.
var ErrStopped = errors.New("rsm: node stopped")

// errCrashed answers commands submitted to a crashed node; Transient, so
// Execute keeps retrying until the node recovers or the caller gives up.
const errCrashed = Transient("rsm: node crashed")

// Config times a Node.
type Config struct {
	// Clock supplies timers and the lease clock; defaults to the wall clock.
	Clock clock.Clock
	// ElectionTimeout is the base leader-liveness timeout; the actual
	// timeout is randomized in [base, 2*base]. Default 150 ms.
	ElectionTimeout time.Duration
	// HeartbeatInterval is the leader's replication and lease-renewal
	// cadence. Default ElectionTimeout/5.
	HeartbeatInterval time.Duration
	// Seed randomizes election jitter; defaults to a hash of the node ID.
	Seed int64
}

func (c Config) withDefaults(id transport.NodeID) Config {
	if c.Clock == nil {
		c.Clock = clock.Real()
	}
	if c.ElectionTimeout <= 0 {
		c.ElectionTimeout = 150 * time.Millisecond
	}
	if c.HeartbeatInterval <= 0 {
		c.HeartbeatInterval = c.ElectionTimeout / 5
	}
	if c.Seed == 0 {
		for _, b := range []byte(id) {
			c.Seed = c.Seed*131 + int64(b)
		}
	}
	return c
}

// Node runs one log-based replica on a clock: an event loop serializing
// messages, client commands, and the election and heartbeat timers.
type Node struct {
	cfg     Config
	replica Replica
	conn    transport.Conn
	leader  atomic.Bool // replica.IsLeader() as of the last handled event

	events chan nodeEvent
	quit   chan struct{}
	wg     sync.WaitGroup

	// Loop-owned.
	rng            *rand.Rand
	electionTimer  clock.Timer
	heartbeatTimer clock.Timer
	crashed        bool
}

type nodeEvent struct {
	kind    nodeEventKind
	from    transport.NodeID
	payload []byte
	cmd     []byte
	read    bool
	done    Done
	crash   bool
}

type nodeEventKind uint8

const (
	evInbound nodeEventKind = iota + 1
	evExecute
	evElection
	evHeartbeat
	evSetCrashed
)

// NewNode starts a node driving rep, attached to the network by join.
func NewNode(rep Replica, cfg Config, join func(transport.NodeID, transport.Handler) transport.Conn) *Node {
	cfg = cfg.withDefaults(rep.ID())
	n := &Node{
		cfg:     cfg,
		replica: rep,
		// Deep enough that peers' sends and timer ticks do not block on a
		// loop busy with a burst of client commands.
		events: make(chan nodeEvent, 8192),
		quit:   make(chan struct{}),
		rng:    rand.New(rand.NewSource(cfg.Seed)),
	}
	n.conn = join(rep.ID(), n.handleInbound)
	n.wg.Add(1)
	go n.loop()
	return n
}

// ID returns the node ID.
func (n *Node) ID() transport.NodeID { return n.replica.ID() }

// IsLeader reports whether the node led after its latest event (metrics
// and tests only: leadership may have moved since).
func (n *Node) IsLeader() bool { return n.leader.Load() }

// Execute submits a command and blocks until it commits and applies,
// retrying across leader changes until ctx expires.
func (n *Node) Execute(ctx context.Context, cmd []byte) ([]byte, error) {
	return n.run(ctx, cmd, false)
}

// Read executes a read command: served locally at a leader holding a valid
// lease (the paper's Multi-Paxos baseline), through the log otherwise (its
// Raft baseline, which has no lease).
func (n *Node) Read(ctx context.Context, cmd []byte) ([]byte, error) {
	return n.run(ctx, cmd, true)
}

type execResult struct {
	result []byte
	err    error
}

func (n *Node) run(ctx context.Context, cmd []byte, read bool) ([]byte, error) {
	backoff := n.cfg.HeartbeatInterval
	for {
		res := make(chan execResult, 1)
		ev := nodeEvent{kind: evExecute, cmd: cmd, read: read, done: func(result []byte, err error) {
			res <- execResult{result: result, err: err}
		}}
		select {
		case n.events <- ev:
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-n.quit:
			return nil, ErrStopped
		}

		tryTimeout := time.NewTimer(2 * n.cfg.ElectionTimeout)
		select {
		case r := <-res:
			tryTimeout.Stop()
			if r.err == nil {
				return r.result, nil
			}
			var transient Transient
			if !errors.As(r.err, &transient) {
				return nil, r.err
			}
		case <-tryTimeout.C:
			// Leader likely failed mid-request; retry.
		case <-ctx.Done():
			tryTimeout.Stop()
			return nil, ctx.Err()
		case <-n.quit:
			tryTimeout.Stop()
			return nil, ErrStopped
		}

		select {
		case <-time.After(backoff):
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-n.quit:
			return nil, ErrStopped
		}
	}
}

// SetCrashed simulates a crash or recovery.
func (n *Node) SetCrashed(crashed bool) {
	n.enqueue(nodeEvent{kind: evSetCrashed, crash: crashed})
}

// Close stops the node and waits for its loop to exit.
func (n *Node) Close() error {
	select {
	case <-n.quit:
		n.wg.Wait()
		return nil
	default:
	}
	close(n.quit)
	n.wg.Wait()
	return n.conn.Close()
}

func (n *Node) enqueue(ev nodeEvent) {
	select {
	case n.events <- ev:
	case <-n.quit:
	}
}

func (n *Node) handleInbound(from transport.NodeID, payload []byte) {
	n.enqueue(nodeEvent{kind: evInbound, from: from, payload: payload})
}

func (n *Node) armHeartbeat() {
	n.heartbeatTimer = n.cfg.Clock.AfterFunc(n.cfg.HeartbeatInterval, func() { n.enqueue(nodeEvent{kind: evHeartbeat}) })
}

func (n *Node) loop() {
	defer n.wg.Done()
	n.resetElectionTimer()
	n.armHeartbeat()
	defer func() {
		n.heartbeatTimer.Stop()
		n.electionTimer.Stop()
	}()
	for {
		select {
		case <-n.quit:
			n.replica.FailForwards()
			n.flush()
			return
		case ev := <-n.events:
			n.handle(ev)
			n.flush()
			n.leader.Store(n.replica.IsLeader())
		}
	}
}

func (n *Node) handle(ev nodeEvent) {
	now := n.cfg.Clock.Now()
	switch ev.kind {
	case evInbound:
		if n.crashed {
			return
		}
		if n.replica.Deliver(ev.from, ev.payload, now) {
			n.resetElectionTimer()
		}
	case evExecute:
		switch {
		case n.crashed:
			ev.done(nil, errCrashed)
		case !ev.read:
			n.replica.Propose(ev.cmd, ev.done)
		default:
			if result, ok := n.replica.ReadLocal(now, ev.cmd); ok {
				ev.done(result, nil)
				return
			}
			n.replica.ProposeRead(ev.cmd, ev.done)
		}
	case evElection:
		if n.crashed {
			return
		}
		n.replica.ElectionTimeout(now)
		n.replica.FailForwards() // forwarded requests to a dead leader
		n.resetElectionTimer()
	case evHeartbeat:
		if !n.crashed {
			n.replica.HeartbeatTick(now)
		}
		n.armHeartbeat()
	case evSetCrashed:
		n.crashed = ev.crash
		if ev.crash {
			n.replica.Crash()
		} else {
			n.resetElectionTimer()
		}
	}
}

func (n *Node) resetElectionTimer() {
	if n.electionTimer != nil {
		n.electionTimer.Stop()
	}
	d := n.cfg.ElectionTimeout + time.Duration(n.rng.Int63n(int64(n.cfg.ElectionTimeout)))
	n.electionTimer = n.cfg.Clock.AfterFunc(d, func() { n.enqueue(nodeEvent{kind: evElection}) })
}

func (n *Node) flush() {
	for _, e := range n.replica.TakeOutbox() {
		if !n.crashed {
			n.conn.Send(e.To, e.Payload)
		}
	}
}
