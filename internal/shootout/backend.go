package shootout

import (
	"errors"
	"fmt"
	"time"

	"crdtsmr/internal/core"
	"crdtsmr/internal/transport"
)

// Protocol timers, in virtual time. They are deliberately paper-ish
// (election timeouts two orders above the hop delay) so the log-based
// baselines run in their steady state, not in election churn.
const (
	// ElectionTimeout is the base leader-liveness timeout for Paxos and
	// Raft; per-node jitter in [ET, 2·ET) breaks election ties.
	ElectionTimeout = 60 * time.Millisecond
	// HeartbeatInterval is the leader replication/lease cadence.
	HeartbeatInterval = 12 * time.Millisecond
	// LeaseDuration is the Paxos leader read-lease window.
	LeaseDuration = 4 * ElectionTimeout
	// RetransmitEvery drives the quorum-protocol retransmission timers
	// (crdtsmr rounds, GLA proposals) that recover from message loss.
	RetransmitEvery = 30 * time.Millisecond
	// OpTimeout bounds one client operation including internal retries;
	// afterwards the attempt's fate is unknown (lost or still committing).
	OpTimeout = 1 * time.Second
)

// ErrOpTimeout reports an operation whose fate is unknown after OpTimeout:
// a write may still commit. Conformance harnesses must treat such writes
// as abandoned, never blindly retried.
var ErrOpTimeout = errors.New("shootout: operation timed out")

// ErrCrashed fails an operation submitted at, or still open at, a replica
// that crashed. A write's fate is unknown, as with ErrOpTimeout.
var ErrCrashed = errors.New("shootout: replica crashed")

// Backend is one protocol wired into a Sim: n replicas joined to the
// fabric, exposing the shared keyed counter/or-set workload surface. Done
// callbacks fire inside the event loop, exactly once. By convention
// counter keys start with 'c' and set keys with 's'. Write errors mean
// "fate unknown" unless the backend documents otherwise; reads are
// effect-free and may be retried freely. The paper's protocol and the
// log-based baselines can also Crash a replica for good.
type Backend interface {
	Inc(replica int, key string, done func(err error))
	Read(replica int, key string, done func(val int64, err error))
	AddElem(replica int, key, elem string, done func(err error))
	Card(replica int, key string, done func(val int64, err error))
}

// AppliedLogger is implemented by log-based backends (Paxos, Raft): the
// sequence of commands each replica applied to its state machine, for
// "same seed, identical decided values" assertions.
type AppliedLogger interface {
	AppliedLog(replica int) []string
}

// Spec names a backend constructor for sweeps.
type Spec struct {
	Name string
	New  func(s *Sim, n int) (Backend, error)
}

// Specs returns every raced configuration: the paper's protocol (default
// options, no batching), the two log-based baselines, and GLA.
func Specs() []Spec {
	return []Spec{
		CRDTSpec(core.DefaultOptions(), 0),
		{Name: "paxos", New: newPaxosBackend},
		{Name: "raft", New: newRaftBackend},
		{Name: "gla", New: newGLABackend},
	}
}

// SpecNamed returns the spec with the given name.
func SpecNamed(name string) (Spec, error) {
	for _, sp := range Specs() {
		if sp.Name == name {
			return sp, nil
		}
	}
	return Spec{}, fmt.Errorf("shootout: unknown backend %q", name)
}

// Members returns the canonical n-replica membership n1..nN.
func Members(n int) []transport.NodeID {
	out := make([]transport.NodeID, n)
	for i := range out {
		out[i] = transport.NodeID(fmt.Sprintf("n%d", i+1))
	}
	return out
}
