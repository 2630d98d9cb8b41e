// Package raft implements the Raft consensus algorithm (Ongaro &
// Ousterhout, USENIX ATC 2014) as one of the paper's two baselines: leader
// election with randomized timeouts, log replication with the log-matching
// property, snapshot-based log compaction, and linearizable reads appended
// to the command log — the configuration the paper benchmarked ("The Raft
// implementation appends both updates and consistent reads to its command
// log", §4.1).
//
// Like internal/core, the Replica here is a pure single-threaded state
// machine. It satisfies rsm.Replica, so the shootout's virtual-time logNode
// drives it with an event loop and timers.
package raft
