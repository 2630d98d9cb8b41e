package cluster

import (
	"time"

	"crdtsmr/internal/transport"
)

// linkBudget is a token-bucket byte budget for one directed replica link,
// in the shape ROADMAP names for overload safety: a bucket refilled at
// Rate bytes/sec up to Burst bytes, paired with a per-key coalescer for
// envelopes the bucket cannot admit yet. It is owned by one shard's event
// loop (never accessed concurrently), takes the current time as an
// argument everywhere, and performs no I/O itself — the loop sends what
// take/drain admit — so it runs identically under the wall clock and
// under clock.Sim (the virtual-time determinism tests rely on this).
//
// Delayed envelopes queue FIFO per link, at most one per object key: a
// newer envelope for a key replaces the queued one in place (counted as
// coalesced). Replacement is message loss to the receiver, which the
// protocol tolerates by construction — the transport is best-effort and
// retransmission re-drives pending requests — while the newest message
// for a key is the one that supersedes its predecessors' state anyway
// (MERGE payloads only grow in the lattice order).
type linkBudget struct {
	rate  float64 // bytes per second
	burst float64 // bucket capacity, bytes

	tokens float64
	last   time.Time

	queue []delayedEnvelope

	delayed   uint64 // envelopes that could not be sent immediately
	coalesced uint64 // queued envelopes replaced by a newer same-key one
}

// delayedEnvelope is one queued, already-packed wire frame.
type delayedEnvelope struct {
	key    string
	packed []byte
}

func newLinkBudget(rate, burst float64, now time.Time) *linkBudget {
	return &linkBudget{rate: rate, burst: burst, tokens: burst, last: now}
}

func (b *linkBudget) refill(now time.Time) {
	if now.After(b.last) {
		b.tokens += b.rate * now.Sub(b.last).Seconds()
		if b.tokens > b.burst {
			b.tokens = b.burst
		}
		b.last = now
	}
}

// take admits one packed envelope of n bytes, charging the bucket. It
// refuses when the link already has a backlog (FIFO: new traffic must not
// overtake delayed traffic) or when the bucket lacks the tokens. Frames
// larger than the whole bucket are admitted when the bucket is full —
// they can never be afforded otherwise, and refusing them forever would
// wedge the link rather than pace it.
func (b *linkBudget) take(now time.Time, n int) bool {
	if len(b.queue) > 0 {
		return false
	}
	b.refill(now)
	need := float64(n)
	if need > b.burst {
		need = b.burst
	}
	if b.tokens < need {
		return false
	}
	b.tokens -= float64(n)
	if b.tokens < 0 {
		b.tokens = 0
	}
	return true
}

// delay queues a packed envelope behind the budget, coalescing with a
// queued envelope for the same key.
func (b *linkBudget) delay(key string, packed []byte) {
	b.delayed++
	for i := range b.queue {
		if b.queue[i].key == key {
			b.queue[i].packed = packed
			b.coalesced++
			return
		}
	}
	b.queue = append(b.queue, delayedEnvelope{key: key, packed: packed})
}

// drain pops every queued envelope the bucket can afford now, in FIFO
// order, and returns them for the loop to transmit.
func (b *linkBudget) drain(now time.Time) []delayedEnvelope {
	b.refill(now)
	var out []delayedEnvelope
	for len(b.queue) > 0 {
		head := b.queue[0]
		need := float64(len(head.packed))
		if need > b.burst {
			need = b.burst
		}
		if b.tokens < need {
			break
		}
		b.tokens -= float64(len(head.packed))
		if b.tokens < 0 {
			b.tokens = 0
		}
		out = append(out, head)
		b.queue[0] = delayedEnvelope{}
		b.queue = b.queue[1:]
	}
	if len(b.queue) == 0 {
		b.queue = nil
	}
	return out
}

// eta reports how long until the bucket can afford the queued head, zero
// when it can already (or nothing is queued).
func (b *linkBudget) eta(now time.Time) time.Duration {
	if len(b.queue) == 0 {
		return 0
	}
	b.refill(now)
	need := float64(len(b.queue[0].packed))
	if need > b.burst {
		need = b.burst
	}
	missing := need - b.tokens
	if missing <= 0 {
		return 0
	}
	return time.Duration(missing / b.rate * float64(time.Second))
}

// budgetFor returns the shard's budget of the link to peer, creating it
// lazily. The node's configured budget divides evenly across shards —
// each shard paces its own keys' share of the link without cross-shard
// coordination, so the node-wide rate still sums to Config.LinkBudget
// (exactly under even key spread, approximately under skew). The bucket
// holds one second of that rate.
func (s *shard) budgetFor(peer transport.NodeID) *linkBudget {
	if b, ok := s.budgets[peer]; ok {
		return b
	}
	rate := float64(s.n.cfg.LinkBudget) / float64(len(s.n.shards))
	b := newLinkBudget(rate, rate, s.n.cfg.Clock.Now())
	s.budgets[peer] = b
	return b
}

// send transmits one packed frame to peer. Under a link budget the frame
// is queued when the budget cannot admit it yet, arming a drain timer for
// the queued head. Called only from the shard's event loop.
func (s *shard) send(peer transport.NodeID, key string, packed []byte) {
	if s.n.cfg.LinkBudget <= 0 {
		s.n.conn.Send(peer, packed)
		return
	}
	b := s.budgetFor(peer)
	if b.take(s.n.cfg.Clock.Now(), len(packed)) {
		s.n.conn.Send(peer, packed)
		return
	}
	b.delay(key, packed)
	s.armBudgetTimer(peer, b)
}

// armBudgetTimer schedules the next drain attempt for peer's queue, if
// one is not already pending.
func (s *shard) armBudgetTimer(peer transport.NodeID, b *linkBudget) {
	if s.budgetTimers[peer] || len(b.queue) == 0 {
		return
	}
	s.budgetTimers[peer] = true
	wait := b.eta(s.n.cfg.Clock.Now())
	if wait <= 0 {
		wait = time.Millisecond
	}
	s.n.cfg.Clock.AfterFunc(wait, func() {
		s.post(nodeEvent{kind: evBudget, from: peer})
	})
}

// drainBudget runs on the shard's event loop when peer's drain timer
// fires.
func (s *shard) drainBudget(peer transport.NodeID) {
	delete(s.budgetTimers, peer)
	b, ok := s.budgets[peer]
	if !ok {
		return
	}
	for _, d := range b.drain(s.n.cfg.Clock.Now()) {
		if !s.crashed {
			s.n.conn.Send(peer, d.packed)
		}
	}
	s.armBudgetTimer(peer, b)
}

// dropBudgetQueues discards every delayed envelope (crash or restart:
// queued frames are indistinguishable from in-flight ones, and the
// transport would drop them anyway).
func (s *shard) dropBudgetQueues() {
	for _, b := range s.budgets {
		b.queue = nil
	}
}
