package rsm

import (
	"fmt"
	"sync"
	"time"

	"crdtsmr/internal/transport"
	"crdtsmr/internal/wire"
)

// StateMachine is the deterministic state machine replicated by a
// log-based protocol. Commands and results are opaque bytes; Apply must be
// deterministic. Snapshot/Restore support log compaction.
type StateMachine interface {
	Apply(cmd []byte) []byte
	Snapshot() []byte
	Restore(snapshot []byte) error
}

// Done receives a command's result, exactly once.
type Done func(result []byte, err error)

// Envelope is an outbound message for the runtime to transmit.
type Envelope struct {
	To      transport.NodeID
	Payload []byte
}

// Transient is the error type of a proposal that failed for a reason
// resubmitting cures: no leader is known, or the leader lost its term or
// ballot before the command committed. Each protocol declares its own
// values — the text travels in forward replies, so it stays
// protocol-specific — and a runtime asks errors.As for the type.
type Transient string

func (e Transient) Error() string { return string(e) }

// Replica is a log-based protocol participant (raft.Replica,
// paxos.Replica): a pure single-threaded state machine with no goroutines
// and no clock of its own. Its runtime, the shootout's logNode in virtual
// time, serializes every call, supplies now, and transmits TakeOutbox
// after each one. Raft ignores now and never serves ReadLocal; its
// ProposeRead rides the log.
type Replica interface {
	ID() transport.NodeID
	IsLeader() bool
	// Propose submits a command; done fires once, with a Transient error
	// if it could not be routed to a leader or the leader was deposed.
	Propose(cmd []byte, done Done)
	// ProposeRead submits a read command that a lease-holding leader may
	// answer without a log round.
	ProposeRead(cmd []byte, done Done)
	// ReadLocal serves a read from local state if this replica leads with
	// a valid lease, and reports false otherwise.
	ReadLocal(now time.Time, cmd []byte) ([]byte, bool)
	// Deliver processes one inbound message and reports whether it proves
	// a live leader (the runtime then resets its election timer).
	Deliver(from transport.NodeID, payload []byte, now time.Time) bool
	ElectionTimeout(now time.Time)
	HeartbeatTick(now time.Time)
	// FailForwards aborts commands forwarded to a leader that has not
	// answered.
	FailForwards()
	// Crash fails everything in flight, as losing the process would.
	Crash()
	TakeOutbox() []Envelope
}

// Counter command opcodes.
const (
	opInc byte = iota + 1
	opRead
	opNoop
)

// EncodeInc builds an increment-by-delta command.
func EncodeInc(delta int64) []byte {
	w := wire.NewWriter(10)
	w.Byte(opInc)
	w.Varint(delta)
	return w.Bytes()
}

// EncodeRead builds a read command. The paper's Raft baseline appends
// consistent reads to the command log; the read's result is the counter
// value at its position in the log.
func EncodeRead() []byte { return []byte{opRead} }

// EncodeNoop builds a no-op command (used by leaders to commit entries
// from previous terms and to keep heartbeats uniform).
func EncodeNoop() []byte { return []byte{opNoop} }

// DecodeValue parses the result of a read command.
func DecodeValue(result []byte) (int64, error) {
	r := wire.NewReader(result)
	v := r.Varint()
	if err := r.Done(); err != nil {
		return 0, fmt.Errorf("rsm: bad read result: %w", err)
	}
	return v, nil
}

// Counter is the replicated integer state machine. It is safe for
// concurrent use; the log-based protocols apply from a single goroutine
// but tests and metrics may read concurrently.
type Counter struct {
	mu sync.Mutex
	v  int64
}

var _ StateMachine = (*Counter)(nil)

// NewCounter returns a counter at zero.
func NewCounter() *Counter { return &Counter{} }

// Value returns the current value.
func (c *Counter) Value() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.v
}

// Apply implements StateMachine.
func (c *Counter) Apply(cmd []byte) []byte {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(cmd) == 0 {
		return nil
	}
	r := wire.NewReader(cmd)
	switch r.Byte() {
	case opInc:
		c.v += r.Varint()
		return nil
	case opRead:
		w := wire.NewWriter(10)
		w.Varint(c.v)
		return w.Bytes()
	default: // opNoop and unknown commands do nothing
		return nil
	}
}

// Snapshot implements StateMachine.
func (c *Counter) Snapshot() []byte {
	c.mu.Lock()
	defer c.mu.Unlock()
	w := wire.NewWriter(10)
	w.Varint(c.v)
	return w.Bytes()
}

// Restore implements StateMachine.
func (c *Counter) Restore(snapshot []byte) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	r := wire.NewReader(snapshot)
	v := r.Varint()
	if err := r.Done(); err != nil {
		return fmt.Errorf("rsm: bad snapshot: %w", err)
	}
	c.v = v
	return nil
}
