// Package wire provides the low-level deterministic binary codec shared by
// every protocol message format in this repository (CRDT Paxos, Raft,
// Multi-Paxos, GLA) and by the TCP framing layer, plus the message
// formats built directly on it: the object envelope that multiplexes
// per-key replication instances over one replica connection
// (envelope.go), the state frames that let replica messages
// carry payloads by value, digest, or delta (state.go, spec in
// docs/PROTOCOL.md §3), and the client frame protocol spoken between
// crdtsmr/client and internal/server (frame.go). docs/PROTOCOL.md is
// the byte-level specification of all three.
//
// The codec is a thin layer over encoding/binary varints with
// length-prefixed strings and byte slices. Writers never fail; Readers
// accumulate the first error and report it from Err, so decoders can be
// written as straight-line field reads followed by a single error check.
package wire
