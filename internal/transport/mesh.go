package transport

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"time"
)

// Mesh is an in-process asynchronous network. Every endpoint owns a
// delivery goroutine, so handlers run serially per node but concurrently
// across nodes — the same execution model as one OS process per replica.
//
// The failure model is a per-message delay option (uniformly distributed
// between min and max, which also causes reordering) plus explicit link
// blocking or node crash via SetDown/Block. Seeded loss and duplication
// are the Fabric's.
type Mesh struct {
	cfg meshConfig

	mu     sync.RWMutex
	eps    map[NodeID]*meshConn
	down   map[NodeID]bool
	blocks map[[2]NodeID]bool
	closed bool

	rngMu sync.Mutex
	rng   *rand.Rand

	dropped atomic.Uint64
	links   linkTable
}

// meshInbox is the per-endpoint inbound queue length. When an inbox
// overflows, messages are dropped (counted in Stats.Dropped): overload
// behaves like loss, which the protocols must tolerate anyway.
const meshInbox = 16384

type meshConfig struct {
	minDelay time.Duration
	maxDelay time.Duration
	seed     int64
}

// MeshOption configures a Mesh.
type MeshOption func(*meshConfig)

// WithDelay makes every message take a uniform random delay in [min, max].
// Unequal delays reorder messages, matching the paper's system model.
func WithDelay(min, max time.Duration) MeshOption {
	return func(c *meshConfig) { c.minDelay, c.maxDelay = min, max }
}

// WithSeed fixes the RNG seed for reproducible delay draws.
func WithSeed(seed int64) MeshOption {
	return func(c *meshConfig) { c.seed = seed }
}

// NewMesh creates an empty mesh.
func NewMesh(opts ...MeshOption) *Mesh {
	cfg := meshConfig{seed: 1}
	for _, o := range opts {
		o(&cfg)
	}
	return &Mesh{
		cfg:    cfg,
		eps:    make(map[NodeID]*meshConn),
		down:   make(map[NodeID]bool),
		blocks: make(map[[2]NodeID]bool),
		rng:    rand.New(rand.NewSource(cfg.seed)),
	}
}

// Join registers a node and starts its delivery goroutine. The handler is
// invoked serially, one message at a time.
func (m *Mesh) Join(id NodeID, h Handler) Conn {
	c := &meshConn{
		mesh:    m,
		id:      id,
		handler: h,
		inbox:   make(chan inbound, meshInbox),
		quit:    make(chan struct{}),
	}
	m.mu.Lock()
	m.eps[id] = c
	m.mu.Unlock()
	c.wg.Add(1)
	go c.deliverLoop()
	return c
}

// SetDown marks a node crashed (true) or recovered (false). Messages to or
// from a down node are dropped, but the node's endpoint and handler state
// survive: the paper assumes the crash-recovery model in which processes
// keep their internal state across failures.
func (m *Mesh) SetDown(id NodeID, down bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.down[id] = down
}

// Block drops all messages from a to b (one direction) until Unblock.
func (m *Mesh) Block(from, to NodeID) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.blocks[[2]NodeID{from, to}] = true
}

// Unblock re-enables the link from a to b.
func (m *Mesh) Unblock(from, to NodeID) {
	m.mu.Lock()
	defer m.mu.Unlock()
	delete(m.blocks, [2]NodeID{from, to})
}

// Partition splits the cluster into groups; links across groups are blocked
// in both directions, links within a group are unblocked.
func (m *Mesh) Partition(groups ...[]NodeID) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.blocks = make(map[[2]NodeID]bool)
	side := make(map[NodeID]int)
	for i, g := range groups {
		for _, id := range g {
			side[id] = i
		}
	}
	for a, sa := range side {
		for b, sb := range side {
			if sa != sb {
				m.blocks[[2]NodeID{a, b}] = true
			}
		}
	}
}

// Heal removes all link blocks.
func (m *Mesh) Heal() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.blocks = make(map[[2]NodeID]bool)
}

// Stats returns the current transport counters.
func (m *Mesh) Stats() Stats { return m.links.stats(m.dropped.Load()) }

// Close shuts down every endpoint and waits for delivery goroutines.
func (m *Mesh) Close() {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return
	}
	m.closed = true
	eps := make([]*meshConn, 0, len(m.eps))
	for _, c := range m.eps {
		eps = append(eps, c)
	}
	m.mu.Unlock()
	for _, c := range eps {
		_ = c.Close()
	}
}

func (m *Mesh) route(from, to NodeID, payload []byte) {
	m.links.sent(from, to, len(payload))
	m.mu.RLock()
	dst, ok := m.eps[to]
	deliverable := ok && !m.closed && !m.down[from] && !m.down[to] && !m.blocks[[2]NodeID{from, to}]
	m.mu.RUnlock()
	if !deliverable {
		m.dropped.Add(1)
		return
	}

	msg := inbound{from: from, payload: payload}
	var delay time.Duration
	if m.cfg.maxDelay > 0 {
		m.rngMu.Lock()
		delay = m.cfg.minDelay
		if jitter := m.cfg.maxDelay - m.cfg.minDelay; jitter > 0 {
			delay += time.Duration(m.rng.Int63n(int64(jitter)))
		}
		m.rngMu.Unlock()
	}
	if delay > 0 {
		time.AfterFunc(delay, func() { dst.enqueue(msg) })
	} else {
		dst.enqueue(msg)
	}
}

type inbound struct {
	from    NodeID
	payload []byte
}

// meshConn is a node's endpoint into a Mesh.
type meshConn struct {
	mesh    *Mesh
	id      NodeID
	handler Handler
	inbox   chan inbound
	quit    chan struct{}
	wg      sync.WaitGroup
	closed  sync.Once
}

// ID implements Conn.
func (c *meshConn) ID() NodeID { return c.id }

// Send implements Conn. Self-sends are delivered through the same path as
// remote sends so that delivery order relative to other messages is
// preserved.
func (c *meshConn) Send(to NodeID, payload []byte) {
	c.mesh.route(c.id, to, payload)
}

// Close implements Conn.
func (c *meshConn) Close() error {
	c.closed.Do(func() {
		close(c.quit)
		c.mesh.mu.Lock()
		delete(c.mesh.eps, c.id)
		c.mesh.mu.Unlock()
	})
	c.wg.Wait()
	return nil
}

func (c *meshConn) enqueue(msg inbound) {
	select {
	case <-c.quit:
		c.mesh.dropped.Add(1)
	case c.inbox <- msg:
	default:
		// Inbox full: treat as loss under overload.
		c.mesh.dropped.Add(1)
	}
}

func (c *meshConn) deliverLoop() {
	defer c.wg.Done()
	for {
		select {
		case <-c.quit:
			return
		case msg := <-c.inbox:
			c.mesh.links.delivered(msg.from, c.id, len(msg.payload))
			c.handler(msg.from, msg.payload)
		}
	}
}
