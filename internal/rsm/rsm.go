package rsm

import (
	"time"

	"crdtsmr/internal/transport"
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
