// Package core implements the paper's contribution: a leaderless, logless
// protocol providing linearizable state machine replication of state-based
// CRDTs by solving generalized lattice agreement (Skrzypczak, Schintke,
// Schütt: "Linearizable State Machine Replication of State-Based CRDTs
// without Logs", PODC 2019, Algorithm 2).
//
// Replica is a deterministic, single-threaded protocol state machine: client
// commands and network messages go in, envelopes and completions come out.
// The async runtime (internal/cluster) drives it from an event loop; the
// interleaving checker (internal/checker) drives it synchronously from a
// seeded scheduler. The protocol state per replica beyond the CRDT payload
// itself is a single round — no command log, no leader.
//
// One file per role: replica.go holds the Replica struct, its constructors,
// Deliver dispatch, the outbox and AbortAll; update.go the update proposer;
// query.go the query proposer (its phase table is docs/PROTOCOL.md §1.4);
// lease.go the round lease; retransmit.go retransmission; acceptor.go the
// pure acceptor and its message handlers; reconfig.go membership change;
// transfer.go the one choice of every state frame's form (full, digest or
// delta, docs/PROTOCOL.md §3) and the caches behind it.
package core
