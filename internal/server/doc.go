// Package server is the network-facing serving layer: it exposes one
// replica (a cluster.Node and its keyspace of per-key replication
// instances) to remote clients over the client frame protocol specified
// in docs/PROTOCOL.md.
//
// A Server accepts TCP connections and speaks length-prefixed binary
// frames (internal/wire: Request, Response). Requests on one connection
// run concurrently — clients pipeline, responses return in completion
// order and are matched by request ID — so one connection can keep many
// protocol runs in flight, which is what makes a handful of pooled
// connections enough for hundreds of closed-loop clients. No request
// holds a goroutine: a connection's read loop submits each query or
// update to the node (cluster.Node.SubmitQuery, SubmitMutation), the
// completion queues it for the connection's one writer, and one
// per-connection deadline list with one timer enforces RequestTimeout
// (conn.go). Only admin commands, which can block in a reconfiguration,
// run on a goroutine each.
//
// Updates arrive as named mutations ("inc", "add", "set", ...) on a
// declared CRDT type rather than as opaque functions: the update
// functions of the replication protocol are Go closures applied at the
// local replica (they never cross the replica wire, §3.2 of the paper),
// so the client protocol names them and the node builds the closure.
// The mutation table is cluster.Node.SubmitMutation, shared with the crdtsmr
// facade's typed handles; docs/PROTOCOL.md lists the supported mutations
// per payload type.
//
// Every response carries a status that tells the client whether a failed
// operation is safe to retry elsewhere: StatusUnavailable means the
// operation provably was not applied (the replica refused it before
// running the protocol — or it is read-only, in which case any
// fate-class failure qualifies, so a replica partitioned from its quorum
// answers timed-out queries "unavailable" rather than "uncertain"),
// StatusUncertain means an update's fate is unknown, and
// StatusBadRequest/StatusError are terminal. The public crdtsmr/client
// package implements the matching retry policy.
package server
