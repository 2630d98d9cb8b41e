// Package cluster provides the asynchronous runtime that turns the pure
// protocol state machine of internal/core into live replicas. A node
// runs Config.Shards independent key-sharded event loops: keys hash to a
// shard, and each shard's loop serializes its keys' client commands,
// inbound messages, and clocks (the paper's serial-process assumption,
// §3.2, per shard). The loop owns its two clocks: one retransmit tick,
// which re-drives the requests of every key with some in flight
// (core.Replica.Tick) to cover message loss, and, when an optional
// per-proposer batch (§3.6) amortizes protocol runs across commands,
// one flush timer. Shards share nothing on the hot path — per-object
// independence means replicas of different keys never interact — so
// different keys' protocol work spreads across cores
// (docs/ARCHITECTURE.md, "Threading model").
//
// A node is not limited to one replicated object: because the protocol
// keeps no cross-command log, replication instances compose per key. Each
// object key owns an independent core.Replica (payload + round counter,
// nothing more), all keys share the node's transport connection, and
// protocol messages carry an object-ID envelope (internal/wire) that
// routes them to the right instance. Replicas are instantiated lazily on
// first touch — locally by a command, remotely by the first inbound
// message for the key. Node.UpdateKey and Node.QueryKey are the keyed
// store's whole API. Cluster starts n nodes over one in-process Mesh for
// the crdtsmr facade and the tests; the daemon (cmd/crdtsmrd), the
// benchmark and examples/netcluster start each node with NewNode.
//
// Durable nodes (Config.DataDir) decouple disk latency from the loops:
// each shard owns a persister goroutine that commits snapshot writes in
// groups (persist.Store.SaveBatch — one frame appended per key per
// batch), and the loop releases a key's outbound envelopes and client
// completions only after the writes ordered before them have landed
// (persist-before-ack, kept per key). Every node, durable or not, runs
// the same flush after each event; a request with nothing to wait for,
// which is every request of a volatile node, is released at once.
//
// Both clocks are wall-clock timers, and the shard loop is the only code
// in the package that starts a timer. Node.ForgetPeer clears what the
// replicas that exist hold about a peer; a replica created later starts
// with nothing to clear.
package cluster
