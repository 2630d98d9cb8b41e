package transport

import (
	"errors"
	"sync"
	"sync/atomic"
)

// NodeID identifies a process in the system Π = {p1, ..., pN}.
type NodeID string

// Handler processes one inbound message. Implementations must be safe for
// the delivery discipline of the transport that invokes them: Mesh and TCP
// call the handler from exactly one delivery goroutine per endpoint (serial
// processes, as the paper assumes); Fabric calls it from the scheduler's
// goroutine.
type Handler func(from NodeID, payload []byte)

// Conn is a node's endpoint into a transport.
type Conn interface {
	// ID returns the local node ID.
	ID() NodeID
	// Send transmits payload to the named peer. Delivery is best-effort:
	// the message may be delayed, reordered, duplicated, or silently
	// dropped, per the system model. Send never blocks on the receiver.
	Send(to NodeID, payload []byte)
	// Close detaches the endpoint. Pending inbound messages are discarded.
	Close() error
}

// ErrClosed is returned by operations on a closed transport.
var ErrClosed = errors.New("transport: closed")

// Stats aggregates transport-level counters, used by the evaluation to
// report message and byte overhead. All three substrates (Mesh, Fabric,
// TCP) fill every field, so byte-level comparisons — e.g. the
// benchmark's wire_bytes_per_op — read identically everywhere. Every
// total but Dropped is the sum of its column over Links.
type Stats struct {
	Sent      uint64 // messages submitted to Send
	Delivered uint64 // messages handed to handlers
	Dropped   uint64 // messages lost (loss model, overflow, or down node)
	Bytes     uint64 // payload bytes delivered
	BytesSent uint64 // payload bytes submitted to Send (incl. later drops)

	// Links breaks traffic down per directed link. The map is a snapshot;
	// a TCP endpoint reports only links it terminates (from == local ID
	// for sent, to == local ID for delivered), while Mesh and Fabric see
	// every link.
	Links map[Link]LinkStats
}

// Link is one directed sender→receiver pair.
type Link struct {
	From, To NodeID
}

// LinkStats counts one directed link's traffic.
type LinkStats struct {
	Sent           uint64 // messages submitted
	Delivered      uint64 // messages handed to the receiving handler
	BytesSent      uint64 // payload bytes submitted
	BytesDelivered uint64 // payload bytes delivered
}

// linkTable is the shared per-link accumulator behind every substrate's
// Stats. The link set is small and stabilizes immediately (it is the
// membership squared at most), so a sync.Map keeps the steady-state send
// and delivery paths lock-free — one read-only map hit plus atomic adds,
// preserving the contention profile the throughput figures had before
// per-link accounting existed.
type linkTable struct {
	m sync.Map // Link -> *linkCounters
}

type linkCounters struct {
	sent, delivered, bytesSent, bytesDelivered atomic.Uint64
}

func (t *linkTable) get(l Link) *linkCounters {
	if c, ok := t.m.Load(l); ok {
		return c.(*linkCounters)
	}
	c, _ := t.m.LoadOrStore(l, &linkCounters{})
	return c.(*linkCounters)
}

func (t *linkTable) sent(from, to NodeID, n int) {
	c := t.get(Link{From: from, To: to})
	c.sent.Add(1)
	c.bytesSent.Add(uint64(n))
}

func (t *linkTable) delivered(from, to NodeID, n int) {
	c := t.get(Link{From: from, To: to})
	c.delivered.Add(1)
	c.bytesDelivered.Add(uint64(n))
}

// stats copies the table into a Stats result, summing the totals over
// its links. Dropped has no link, so the substrate counts it itself.
func (t *linkTable) stats(dropped uint64) Stats {
	out := Stats{Dropped: dropped, Links: make(map[Link]LinkStats)}
	t.m.Range(func(k, v any) bool {
		c := v.(*linkCounters)
		l := LinkStats{
			Sent:           c.sent.Load(),
			Delivered:      c.delivered.Load(),
			BytesSent:      c.bytesSent.Load(),
			BytesDelivered: c.bytesDelivered.Load(),
		}
		out.Links[k.(Link)] = l
		out.Sent += l.Sent
		out.Delivered += l.Delivered
		out.Bytes += l.BytesDelivered
		out.BytesSent += l.BytesSent
		return true
	})
	return out
}
