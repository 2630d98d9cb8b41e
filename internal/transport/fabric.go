package transport

import (
	"container/heap"
	"math/rand"
	"time"
)

// Fabric is a deterministic single-threaded network for protocol testing.
// Sends append to a pending pool; Step removes one pending message chosen
// by the seeded scheduler and delivers it synchronously, so every
// interleaving of message arrivals is reachable and reproducible from the
// seed. This is the "protocol scheduler that enforces random interleavings
// of incoming messages" the paper used to validate its implementation (§4).
//
// With SetDelay (or Net.Fabric) the fabric switches from adversarial
// random-order delivery to latency emulation on a virtual clock: each
// message is stamped with a delivery deadline drawn from the seeded delay
// window, Step delivers the earliest deadline first, and Now advances to
// that deadline. The fabric also keeps a queue of timers (Schedule), and
// its run loop (RunFor, RunUntil) interleaves them with deliveries in
// deadline order, timers first on ties, so protocol timers, workload
// logic and stepped cluster nodes (it is a cluster.Clock) all run as
// events of one simulation. Virtual time makes latency and throughput
// measurements deterministic functions of the seed — independent of
// wall-clock scheduling and host CPU — which is what lets the
// protocol-shootout figures assert latency bounds in CI. In random-order
// mode messages take no virtual time: the run loop delivers every pending
// one before the next timer.
//
// Fabric is not safe for concurrent use: the scheduler, the handlers and
// timers it invokes, and any client-operation injection must run on one
// goroutine.
type Fabric struct {
	rng      *rand.Rand
	eps      map[NodeID]Handler
	pending  []pendingMsg
	timers   timerQueue
	timerSeq uint64
	down     map[NodeID]bool
	blocks   map[[2]NodeID]bool
	loss     float64
	dup      float64
	delayed  bool
	delayMin time.Duration
	delayMax time.Duration
	now      time.Duration
	dropped  uint64
	links    linkTable
}

type pendingMsg struct {
	from, to NodeID
	payload  []byte
	at       time.Duration // virtual delivery deadline; meaningful in delay mode only
}

// runCap bounds RunUntil: a run whose protocols stopped making progress
// gives up after this much virtual time.
const runCap = 5 * time.Minute

// Net describes an emulated network: per-message delay drawn uniformly
// from [MinDelay, MaxDelay], plus optional loss and duplication.
type Net struct {
	MinDelay time.Duration
	MaxDelay time.Duration
	Loss     float64
	Dup      float64
}

// LAN is a datacenter-ish profile; the protocol gaps it produces are
// round-trip multiples, so any latency floor works.
func LAN() Net {
	return Net{MinDelay: 500 * time.Microsecond, MaxDelay: 4 * time.Millisecond}
}

// Fabric returns a fabric seeded with seed that emulates n in delay mode,
// over LAN's delay window when n sets no MaxDelay.
func (n Net) Fabric(seed int64) *Fabric {
	if n.MaxDelay <= 0 {
		n.MinDelay, n.MaxDelay = LAN().MinDelay, LAN().MaxDelay
	}
	f := NewFabric(seed)
	f.SetDelay(n.MinDelay, n.MaxDelay)
	f.SetLoss(n.Loss)
	f.SetDuplication(n.Dup)
	return f
}

// NewFabric creates a deterministic network seeded with seed.
func NewFabric(seed int64) *Fabric {
	return &Fabric{
		rng:    rand.New(rand.NewSource(seed)),
		eps:    make(map[NodeID]Handler),
		down:   make(map[NodeID]bool),
		blocks: make(map[[2]NodeID]bool),
	}
}

// SetLoss drops each delivered message with probability p at Step time.
func (f *Fabric) SetLoss(p float64) { f.loss = p }

// SetDuplication re-enqueues each delivered message with probability p at
// Step time, so it is delivered again later (and may be duplicated again).
// Together with the scheduler's random delivery order this exercises the
// at-least-once message model the protocols must tolerate.
func (f *Fabric) SetDuplication(p float64) { f.dup = p }

// SetDelay switches the fabric into virtual-time latency emulation: every
// subsequent Send stamps the message with a deadline Now()+d, d drawn
// uniformly from [min, max] by the seeded RNG, and Step delivers messages
// in deadline order, advancing the virtual clock. Duplicated messages draw
// a fresh delay. The legacy random-order mode (no SetDelay call) consumes
// the RNG in exactly the same sequence as before this method existed, so
// recorded exploration seeds keep reproducing.
func (f *Fabric) SetDelay(min, max time.Duration) {
	if max < min {
		min, max = max, min
	}
	f.delayed = true
	f.delayMin, f.delayMax = min, max
}

// Now returns the virtual clock, which starts at zero and advances, in
// delay mode, to each delivered (or dropped) message's deadline and, in
// either mode, to each timer's.
func (f *Fabric) Now() time.Duration { return f.now }

// advanceTo moves the virtual clock forward to t (never backward).
func (f *Fabric) advanceTo(t time.Duration) {
	if t > f.now {
		f.now = t
	}
}

// nextDeadline returns the earliest pending delivery deadline, which is
// zero for every message in random-order mode. The second result is false
// when no message is pending.
func (f *Fabric) nextDeadline() (time.Duration, bool) {
	if len(f.pending) == 0 {
		return 0, false
	}
	at := f.pending[0].at
	for _, m := range f.pending[1:] {
		if m.at < at {
			at = m.at
		}
	}
	return at, true
}

// timer is one Schedule call: fn runs at at unless stopped first.
type timer struct {
	at      time.Duration
	seq     uint64
	fn      func()
	stopped bool
}

// timerQueue is a heap of timers by deadline, FIFO among equal ones.
type timerQueue []*timer

func (q timerQueue) Len() int { return len(q) }
func (q timerQueue) Less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	return q[i].seq < q[j].seq
}
func (q timerQueue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }
func (q *timerQueue) Push(x any)   { *q = append(*q, x.(*timer)) }
func (q *timerQueue) Pop() any {
	old := *q
	t := old[len(old)-1]
	old[len(old)-1] = nil
	*q = old[:len(old)-1]
	return t
}

// Schedule runs fn once, as an event of the run loop, d after Now (at Now
// when d is negative). Calling stop before then cancels it.
func (f *Fabric) Schedule(d time.Duration, fn func()) (stop func()) {
	f.timerSeq++
	t := &timer{at: f.now + max(d, 0), seq: f.timerSeq, fn: fn}
	heap.Push(&f.timers, t)
	return func() { t.stopped = true }
}

// step runs the earliest event due by limit and reports whether there was
// one: a timer, or else one pending message, delivered or dropped, timers
// first on equal deadlines. A dropped message is an event of its own, so
// the clock never passes a due timer or the limit to reach the message
// after it.
func (f *Fabric) step(limit time.Duration) bool {
	for len(f.timers) > 0 && f.timers[0].stopped {
		heap.Pop(&f.timers)
	}
	mAt, hasM := f.nextDeadline()
	if len(f.timers) > 0 && (!hasM || f.timers[0].at <= mAt) {
		if f.timers[0].at > limit {
			return false
		}
		t := heap.Pop(&f.timers).(*timer)
		f.advanceTo(t.at)
		t.fn()
		return true
	}
	if !hasM || mAt > limit {
		return false
	}
	f.next()
	return true
}

// RunFor runs every event due within d of Now and leaves the clock at
// Now()+d.
func (f *Fabric) RunFor(d time.Duration) {
	end := f.now + d
	for f.step(end) {
	}
	f.advanceTo(end)
}

// RunUntil runs events until done reports true, and reports whether it
// did: it gives up when no event is left within runCap of virtual time.
func (f *Fabric) RunUntil(done func() bool) bool {
	limit := f.now + runCap
	for !done() {
		if !f.step(limit) {
			return done()
		}
	}
	return true
}

// drawDelay picks one message's in-flight latency from the delay window.
func (f *Fabric) drawDelay() time.Duration {
	d := f.delayMin
	if jitter := f.delayMax - f.delayMin; jitter > 0 {
		d += time.Duration(f.rng.Int63n(int64(jitter) + 1))
	}
	return d
}

// Join registers a node.
func (f *Fabric) Join(id NodeID, h Handler) Conn {
	f.eps[id] = h
	return &fabricConn{fabric: f, id: id}
}

// SetDown marks a node crashed or recovered. Pending messages to a crashed
// node are retained but dropped at delivery time if the node is still down.
func (f *Fabric) SetDown(id NodeID, down bool) { f.down[id] = down }

// Block drops messages from a to b at delivery time until Unblock.
func (f *Fabric) Block(from, to NodeID) { f.blocks[[2]NodeID{from, to}] = true }

// Unblock re-enables the link from a to b.
func (f *Fabric) Unblock(from, to NodeID) { delete(f.blocks, [2]NodeID{from, to}) }

// Pending returns the number of undelivered messages.
func (f *Fabric) Pending() int { return len(f.pending) }

// Step delivers one pending message and returns true, or returns false if
// no messages are pending. In the legacy mode the message is chosen
// uniformly at random; in delay mode it is the earliest deadline (FIFO on
// ties) and the virtual clock advances to it. Handlers run inline and may
// send further messages, which join the pool.
func (f *Fabric) Step() bool {
	for {
		pending, delivered := f.next()
		if !pending || delivered {
			return pending
		}
	}
}

// next takes one pending message, as Step chooses it, and delivers it
// unless the network drops it. It reports whether a message was pending
// and whether it was delivered.
func (f *Fabric) next() (pending, delivered bool) {
	if len(f.pending) == 0 {
		return false, false
	}
	var msg pendingMsg
	if f.delayed {
		i := 0
		for j := 1; j < len(f.pending); j++ {
			if f.pending[j].at < f.pending[i].at {
				i = j
			}
		}
		msg = f.pending[i]
		// Order-preserving removal keeps equal-deadline messages FIFO,
		// so delivery order is a pure function of deadlines and send
		// order, not of pool layout.
		f.pending = append(f.pending[:i], f.pending[i+1:]...)
		f.advanceTo(msg.at)
	} else {
		i := f.rng.Intn(len(f.pending))
		msg = f.pending[i]
		last := len(f.pending) - 1
		f.pending[i] = f.pending[last]
		f.pending = f.pending[:last]
	}

	h, ok := f.eps[msg.to]
	if !ok || f.down[msg.to] || f.down[msg.from] || f.blocks[[2]NodeID{msg.from, msg.to}] {
		f.dropped++
		return true, false
	}
	if f.loss > 0 && f.rng.Float64() < f.loss {
		f.dropped++
		return true, false
	}
	if f.dup > 0 && f.rng.Float64() < f.dup {
		if f.delayed {
			msg.at = f.now + f.drawDelay()
		}
		f.pending = append(f.pending, msg)
	}
	f.links.delivered(msg.from, msg.to, len(msg.payload))
	h(msg.from, msg.payload)
	return true, true
}

// Drain delivers messages until quiescence (no pending messages). It
// returns the number of delivered messages and gives up after a safety
// bound to keep broken protocols from looping forever.
func (f *Fabric) Drain(bound int) int {
	n := 0
	for n < bound && f.Step() {
		n++
	}
	return n
}

// Stats returns the fabric's counters.
func (f *Fabric) Stats() Stats { return f.links.stats(f.dropped) }

// fabricConn is a node's endpoint into a Fabric.
type fabricConn struct {
	fabric *Fabric
	id     NodeID
}

// ID implements Conn.
func (c *fabricConn) ID() NodeID { return c.id }

// Send implements Conn: the message joins the pending pool and is delivered
// by a future Step. In delay mode the deadline is stamped here, at the
// virtual send instant.
func (c *fabricConn) Send(to NodeID, payload []byte) {
	f := c.fabric
	f.links.sent(c.id, to, len(payload))
	msg := pendingMsg{from: c.id, to: to, payload: payload}
	if f.delayed {
		msg.at = f.now + f.drawDelay()
	}
	f.pending = append(f.pending, msg)
}

// Close implements Conn.
func (c *fabricConn) Close() error {
	delete(c.fabric.eps, c.id)
	return nil
}
