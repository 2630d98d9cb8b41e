// Package cluster provides the asynchronous runtime that turns the pure
// protocol state machine of internal/core into live replicas. A node
// runs Config.Shards independent key-sharded event loops: keys hash to a
// shard, and each shard's loop serializes its keys' client commands,
// inbound messages, and timers (the paper's serial-process assumption,
// §3.2, per shard), with a retransmission timer per in-flight request
// covering message loss and an optional per-proposer batch (§3.6)
// amortizing protocol runs across commands. Shards share nothing on the
// hot path — per-object independence means replicas of different keys
// never interact — so different keys' protocol work spreads across
// cores (docs/ARCHITECTURE.md, "Threading model").
//
// A node is not limited to one replicated object: because the protocol
// keeps no cross-command log, replication instances compose per key. Each
// object key owns an independent core.Replica (payload + round counter,
// nothing more), all keys share the node's transport connection, and
// protocol messages carry an object-ID envelope (internal/wire) that
// routes them to the right instance. Replicas are instantiated lazily on
// first touch — locally by a command, remotely by the first inbound
// message for the key. Node.UpdateKey and Node.QueryKey are the keyed
// store's whole API; Cluster is the one place n nodes are started in a
// process, and the facade, the tests and the benchmark harness all call
// it directly.
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
// Timers are wall-clock (time.AfterFunc). Node.ForgetPeer clears what
// the replicas that exist hold about a peer; a replica created later
// starts with nothing to clear.
package cluster
