// Package paxos implements Multi-Paxos (Lamport, "Paxos Made Simple", 2001)
// as the second baseline of the paper's evaluation: a stable leader elected
// by a phase-1 exchange over the log suffix, one phase-2 round per command
// slot, in-order application, command-log truncation, and leader read
// leases — the optimization the paper attributes to its Multi-Paxos
// comparison system ("the Multi-Paxos implementation employs leader read
// leases", §4.1). Reads at a leader holding a valid lease are served from
// local state without any message exchange.
//
// As with internal/core and internal/raft, Replica is a pure,
// single-threaded protocol state machine. It satisfies rsm.Replica, so the
// shootout's virtual-time logNode adds the event loop, election/heartbeat
// timers, and the lease clock. Command forwarding, duplicate suppression
// and the outbox are the embedded rsm.Commands, shared with internal/raft.
package paxos
