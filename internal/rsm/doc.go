// Package rsm defines the replicated-state-machine glue shared by the
// log-based baseline protocols (internal/raft, internal/paxos): an opaque
// command interface with snapshot support, and the replicated integer
// counter both baselines replicate in the paper's evaluation ("For
// Multi-Paxos and Raft, we used a simple replicated integer as the
// counter", §4).
//
// It is also where "run a log-based replica" exists once: Replica is the
// one interface both protocols' pure state machines satisfy, and Node is
// the one runtime that drives a Replica on a wall clock.
package rsm
