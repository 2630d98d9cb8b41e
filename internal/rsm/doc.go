// Package rsm defines the replicated-state-machine glue shared by the
// log-based baseline protocols (internal/raft, internal/paxos): an opaque
// command interface with snapshot support, and Store, the state machine
// both baselines replicate. Its named counters are the paper's counter
// ("For Multi-Paxos and Raft, we used a simple replicated integer as the
// counter", §4), one per key.
//
// Replica is the one interface both protocols' pure state machines
// satisfy; internal/shootout drives it in virtual time.
package rsm
