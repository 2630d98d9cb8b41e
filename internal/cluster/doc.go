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
// (docs/ARCHITECTURE.md, "Threading model"). A shard keeps one record
// per key (keyState): the key's replica and all of the loop's
// bookkeeping about it, in the shard's only map keyed by object key.
//
// A node is not limited to one replicated object: because the protocol
// keeps no cross-command log, replication instances compose per key. Each
// object key owns an independent core.Replica (payload + round counter,
// nothing more), all keys share the node's transport connection, and
// protocol messages carry an object-ID envelope (internal/wire) that
// routes them to the right instance. Replicas are instantiated lazily on
// first touch — locally by a command, remotely by the first inbound
// message for the key. Node.UpdateKey and Node.QueryKey, blocking waits
// over SubmitUpdate and SubmitQuery, are the keyed store's whole API.
// Node.SubmitMutation (and Mutate, its blocking wait) is the one mutation
// table: it turns a named mutation ("inc", "add", ...) into the update
// function it submits, chains an or-set remove's update onto its
// observing query on the key's shard loop, and owns the node's one or-set
// tag counter. Cluster starts n nodes
// over one in-process network: a Mesh for the crdtsmr facade and the
// tests, or a transport.Fabric, whose nodes step on its virtual clock,
// for the shootout figures and the tests that must replay; the daemon,
// the benchmark and examples/netcluster call NewNode per node.
//
// Durable nodes (Config.DataDir) decouple disk latency from the loops:
// each shard's group commit writes snapshots in batches
// (persist.Store.SaveBatch — one frame appended per key per batch), and
// the loop releases a key's outbound envelopes and client completions
// only after the writes ordered before them have landed
// (persist-before-ack, kept per key). A request with nothing to wait for,
// which is every request of a volatile node, is released at once.
//
// A driver runs the shards and owns their clocks. NewNode's loopDriver
// gives each shard a goroutine with wall-clock timers, plus a persister
// goroutine when durable; it is the only code that starts a timer.
// NewSteppedNode's stepDriver runs the same steps inline on a virtual
// Clock (a transport.Fabric) and reads no wall clock.
// Node.ForgetPeer clears what existing replicas hold about a peer.
package cluster
