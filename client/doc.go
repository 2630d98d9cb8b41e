// Package client is the public Go client for clusters served by
// crdtsmr's network layer (cmd/crdtsmrd, internal/server): it speaks the
// client frame protocol of docs/PROTOCOL.md and exposes the same typed
// handles as the in-process facade — counters, observed-remove sets,
// last-writer-wins registers — plus raw linearizable queries and admin
// commands. External modules import it as crdtsmr/client; docs/CLIENT.md
// is the guided tour.
//
// # Connections
//
// A Client holds a small pool of TCP connections per server address
// (WithPool) and pipelines requests: every request gets a
// connection-unique ID, many can be in flight on one connection, and a
// demultiplexing read loop matches responses (which arrive in completion
// order) back to their waiters. Connections are dialed lazily — through
// a custom Dialer if WithDialer is set — and a connection that fails or
// delivers an undecodable frame is discarded, never reused; its pool
// slot redials on next use.
//
// # Contexts and deadlines
//
// Every operation takes a context.Context first and runs under its
// deadline and cancellation, retries included. When the caller's context
// has no deadline, the WithRequestTimeout fallback (default 10 s)
// applies, so no operation can block forever by accident, not even on a
// frame write to a server that stops reading. A deadline
// expiry returns an error matching both ErrTimeout and
// context.DeadlineExceeded.
//
// # Errors and retries
//
// Failures are classified by what the caller may safely do next, and the
// client's own failover (tunable with WithRetryPolicy) follows the same
// rules it exposes (docs/PROTOCOL.md §2.5):
//
//   - ErrUnavailable — provably not applied; the client retries any
//     operation against the next address. Dial failures and the server
//     or connection failures of read-only operations (which have no
//     effects to be uncertain about) carry this class too; only
//     deadline expiry takes a read out of it (ErrTimeout).
//   - ErrUncertain — an update's fate is unknown (server timeout/abort,
//     or a connection that died with the update in flight); never
//     auto-retried, because re-sending may double-apply. Callers that
//     retry an update after ErrUncertain accept at-least-once
//     semantics.
//   - *StatusError — every non-OK server response, carrying the wire
//     status code; StatusBadRequest and StatusFailed are terminal.
//   - ErrTypeMismatch — a typed handle read an object of a different
//     CRDT type; terminal.
//
// All of the above are matched with errors.Is / errors.As; see
// errors.go for the exact mapping.
package client
