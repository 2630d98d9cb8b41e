// Package transport provides the message-passing substrates the replication
// protocols run on, matching the paper's system model (§2.1): asynchronous
// processes exchanging unreliable messages that may be delayed, reordered,
// or lost.
//
// Three implementations share one interface:
//
//   - Mesh: an in-process asynchronous network of goroutine endpoints with
//     seeded, configurable delay, link blocking, and node crash, used by
//     the crdtsmr facade, the benchmark harness and integration tests.
//   - Fabric: a single-threaded deterministic network with its own virtual
//     clock. Its seeded scheduler drives message delivery order, loss and
//     duplication for the protocol-interleaving checker (the paper tested
//     correctness with "a protocol scheduler that enforces random
//     interleavings of incoming messages", §4); in delay mode (Net, LAN)
//     it emulates latency and runs timers and deliveries as one event
//     loop, which the protocol shootout, the bench figures and stepped
//     cluster nodes run on.
//   - TCP: a length-prefixed framing transport over net.Conn for
//     multi-process deployments.
package transport
