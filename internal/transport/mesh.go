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
// The failure model is configured with options: per-message delay
// (uniformly distributed between min and max, which also causes
// reordering), independent loss and duplication probabilities, and
// explicit link blocking or node crash via SetDown/Block.
type Mesh struct {
	cfg meshConfig

	mu     sync.RWMutex
	eps    map[NodeID]*MeshConn
	down   map[NodeID]bool
	blocks map[[2]NodeID]bool
	closed bool

	rngMu sync.Mutex
	rng   *rand.Rand

	sent      atomic.Uint64
	delivered atomic.Uint64
	dropped   atomic.Uint64
	bytes     atomic.Uint64
	bytesSent atomic.Uint64
	links     linkTable
}

// meshInbox is the per-endpoint inbound queue length. When an inbox
// overflows, messages are dropped (counted in Stats.Dropped): overload
// behaves like loss, which the protocols must tolerate anyway.
const meshInbox = 16384

type meshConfig struct {
	minDelay  time.Duration
	maxDelay  time.Duration
	loss      float64
	duplicate float64
	seed      int64
}

// MeshOption configures a Mesh.
type MeshOption func(*meshConfig)

// WithDelay makes every message take a uniform random delay in [min, max].
// Unequal delays reorder messages, matching the paper's system model.
func WithDelay(min, max time.Duration) MeshOption {
	return func(c *meshConfig) { c.minDelay, c.maxDelay = min, max }
}

// WithLoss drops each message independently with probability p.
func WithLoss(p float64) MeshOption {
	return func(c *meshConfig) { c.loss = p }
}

// WithDuplication delivers each message twice with probability p.
func WithDuplication(p float64) MeshOption {
	return func(c *meshConfig) { c.duplicate = p }
}

// WithSeed fixes the RNG seed for reproducible delay/loss decisions.
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
		eps:    make(map[NodeID]*MeshConn),
		down:   make(map[NodeID]bool),
		blocks: make(map[[2]NodeID]bool),
		rng:    rand.New(rand.NewSource(cfg.seed)),
	}
}

// Join registers a node and starts its delivery goroutine. The handler is
// invoked serially, one message at a time.
func (m *Mesh) Join(id NodeID, h Handler) *MeshConn {
	c := &MeshConn{
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
func (m *Mesh) Stats() Stats {
	return Stats{
		Sent:      m.sent.Load(),
		Delivered: m.delivered.Load(),
		Dropped:   m.dropped.Load(),
		Bytes:     m.bytes.Load(),
		BytesSent: m.bytesSent.Load(),
		Links:     m.links.snapshot(),
	}
}

// Close shuts down every endpoint and waits for delivery goroutines.
func (m *Mesh) Close() {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return
	}
	m.closed = true
	eps := make([]*MeshConn, 0, len(m.eps))
	for _, c := range m.eps {
		eps = append(eps, c)
	}
	m.mu.Unlock()
	for _, c := range eps {
		_ = c.Close()
	}
}

func (m *Mesh) route(from, to NodeID, payload []byte) {
	m.sent.Add(1)
	m.bytesSent.Add(uint64(len(payload)))
	m.links.sent(from, to, len(payload))
	m.mu.RLock()
	dst, ok := m.eps[to]
	deliverable := ok && !m.closed && !m.down[from] && !m.down[to] && !m.blocks[[2]NodeID{from, to}]
	m.mu.RUnlock()
	if !deliverable {
		m.dropped.Add(1)
		return
	}

	copies := 1
	var delay time.Duration
	if m.cfg.loss > 0 || m.cfg.duplicate > 0 || m.cfg.maxDelay > 0 {
		m.rngMu.Lock()
		if m.cfg.loss > 0 && m.rng.Float64() < m.cfg.loss {
			copies = 0
		} else if m.cfg.duplicate > 0 && m.rng.Float64() < m.cfg.duplicate {
			copies = 2
		}
		if m.cfg.maxDelay > 0 {
			delay = m.cfg.minDelay
			if jitter := m.cfg.maxDelay - m.cfg.minDelay; jitter > 0 {
				delay += time.Duration(m.rng.Int63n(int64(jitter)))
			}
		}
		m.rngMu.Unlock()
	}
	if copies == 0 {
		m.dropped.Add(1)
		return
	}

	msg := inbound{from: from, payload: payload}
	for i := 0; i < copies; i++ {
		if delay > 0 {
			time.AfterFunc(delay, func() { dst.enqueue(msg) })
		} else {
			dst.enqueue(msg)
		}
	}
}

type inbound struct {
	from    NodeID
	payload []byte
}

// MeshConn is a node's endpoint into a Mesh.
type MeshConn struct {
	mesh    *Mesh
	id      NodeID
	handler Handler
	inbox   chan inbound
	quit    chan struct{}
	wg      sync.WaitGroup
	closed  sync.Once
}

var _ Conn = (*MeshConn)(nil)

// ID implements Conn.
func (c *MeshConn) ID() NodeID { return c.id }

// Send implements Conn. Self-sends are delivered through the same path as
// remote sends so that delivery order relative to other messages is
// preserved.
func (c *MeshConn) Send(to NodeID, payload []byte) {
	c.mesh.route(c.id, to, payload)
}

// Close implements Conn.
func (c *MeshConn) Close() error {
	c.closed.Do(func() {
		close(c.quit)
		c.mesh.mu.Lock()
		delete(c.mesh.eps, c.id)
		c.mesh.mu.Unlock()
	})
	c.wg.Wait()
	return nil
}

func (c *MeshConn) enqueue(msg inbound) {
	select {
	case <-c.quit:
		c.mesh.dropped.Add(1)
	case c.inbox <- msg:
	default:
		// Inbox full: treat as loss under overload.
		c.mesh.dropped.Add(1)
	}
}

func (c *MeshConn) deliverLoop() {
	defer c.wg.Done()
	for {
		select {
		case <-c.quit:
			return
		case msg := <-c.inbox:
			c.mesh.delivered.Add(1)
			c.mesh.bytes.Add(uint64(len(msg.payload)))
			c.mesh.links.delivered(msg.from, c.id, len(msg.payload))
			c.handler(msg.from, msg.payload)
		}
	}
}
