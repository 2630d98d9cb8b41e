// Package shootout races the paper's log-free CRDT SMR protocol against
// three baselines — Multi-Paxos RSM, Raft RSM, and generalized lattice
// agreement (arXiv:1810.05871) — on one shared keyed counter/or-set
// workload over one latency-emulated transport.Fabric.
//
// Everything runs in virtual time: the fabric stamps per-message delivery
// deadlines from the seeded rng, a deterministic event loop (Sim)
// interleaves message deliveries with protocol timers, and every latency,
// throughput, or wire-byte figure is a pure function of the seed. That
// makes the numbers latency-bound rather than CPU-bound, so CI can assert
// cross-protocol ratios on a one-core box without flaking. There is no CPU
// model: an op costs only its message hops.
//
// The paper's protocol runs on the node runtime crdtsmrd runs: each
// replica is a cluster.Node stepped on the Sim's clock
// (cluster.NewSteppedNode), so the figures measure its shards, retransmit
// tick, batch cadence and, with a DataDir, its group commit.
//
// The package has three consumers:
//
//   - internal/bench builds every cmd/bench figure from Session,
//     ReadAfterWrite and MixedWorkload: the paper's Figures 1–4 (the
//     paper's protocol with and without §3.6 batching via CRDTSpec, a
//     replica crash for Figure 4), the round lease and the protocols race,
//   - the conformance harness (Conform) drives every backend through a
//     seeded fault schedule and hands the resulting history to
//     internal/checker's counter linearizability checker, and
//   - the property tests for internal/paxos and internal/raft reuse the
//     backends to assert "same seed, same decided log" determinism.
//
// The two log-based backends are one logNode runtime over rsm.Replica, the
// interface raft.Replica and paxos.Replica satisfy directly; both embed
// the shared client-command layer rsm.Commands. A Conform run, partitions
// included, replays from its seed for every backend: its op history,
// applied logs and final reads (TestConformReplaysSeed).
package shootout
