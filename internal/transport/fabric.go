package transport

import (
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
// With SetDelay the fabric switches from adversarial random-order delivery
// to latency emulation on a virtual clock: each message is stamped with a
// delivery deadline drawn from the seeded delay window, Step delivers the
// earliest deadline first, and Now advances to that deadline. Virtual time
// makes latency and throughput measurements deterministic functions of the
// seed — independent of wall-clock scheduling and host CPU — which is what
// lets the protocol-shootout figures assert latency bounds in CI.
//
// Fabric is not safe for concurrent use: the scheduler, the handlers it
// invokes, and any client-operation injection must run on one goroutine.
type Fabric struct {
	rng      *rand.Rand
	eps      map[NodeID]Handler
	pending  []pendingMsg
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

// Now returns the virtual clock, which starts at zero and advances only in
// delay mode, to each delivered (or dropped) message's deadline.
func (f *Fabric) Now() time.Duration { return f.now }

// AdvanceTo moves the virtual clock forward to t (never backward). Drivers
// use it to account for timer events that fall between message deadlines.
func (f *Fabric) AdvanceTo(t time.Duration) {
	if t > f.now {
		f.now = t
	}
}

// NextDeadline returns the earliest pending delivery deadline. The second
// result is false when no message is pending or the fabric is not in delay
// mode.
func (f *Fabric) NextDeadline() (time.Duration, bool) {
	if !f.delayed || len(f.pending) == 0 {
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

// drawDelay picks one message's in-flight latency from the delay window.
func (f *Fabric) drawDelay() time.Duration {
	d := f.delayMin
	if jitter := f.delayMax - f.delayMin; jitter > 0 {
		d += time.Duration(f.rng.Int63n(int64(jitter) + 1))
	}
	return d
}

// Join registers a node.
func (f *Fabric) Join(id NodeID, h Handler) *FabricConn {
	f.eps[id] = h
	return &FabricConn{fabric: f, id: id}
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
	for len(f.pending) > 0 {
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
			f.AdvanceTo(msg.at)
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
			continue
		}
		if f.loss > 0 && f.rng.Float64() < f.loss {
			f.dropped++
			continue
		}
		if f.dup > 0 && f.rng.Float64() < f.dup {
			if f.delayed {
				msg.at = f.now + f.drawDelay()
			}
			f.pending = append(f.pending, msg)
		}
		f.links.delivered(msg.from, msg.to, len(msg.payload))
		h(msg.from, msg.payload)
		return true
	}
	return false
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

// FabricConn is a node's endpoint into a Fabric.
type FabricConn struct {
	fabric *Fabric
	id     NodeID
}

var _ Conn = (*FabricConn)(nil)

// ID implements Conn.
func (c *FabricConn) ID() NodeID { return c.id }

// Send implements Conn: the message joins the pending pool and is delivered
// by a future Step. In delay mode the deadline is stamped here, at the
// virtual send instant.
func (c *FabricConn) Send(to NodeID, payload []byte) {
	f := c.fabric
	f.links.sent(c.id, to, len(payload))
	msg := pendingMsg{from: c.id, to: to, payload: payload}
	if f.delayed {
		msg.at = f.now + f.drawDelay()
	}
	f.pending = append(f.pending, msg)
}

// Close implements Conn.
func (c *FabricConn) Close() error {
	delete(c.fabric.eps, c.id)
	return nil
}
