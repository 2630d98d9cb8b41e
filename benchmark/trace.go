package main

import (
	"encoding/json"
	"hash/fnv"
	"os"
	"sync"
	"time"

	"crdtsmr/internal/transport"
	"crdtsmr/internal/wire"
)

// maxSpans bounds the spans kept for the trace file. Hop latencies and
// envelope sizes are tallied for every message regardless.
const maxSpans = 20000

// span is one traced interval. Spans of one request share the call's ID
// as Parent; times are nanoseconds since the trace began.
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Name   string `json:"name"` // "client.call" or "transport.hop"
	Key    string `json:"key"`
	Op     string `json:"op,omitempty"` // client.call: "query" or "update"
	From   string `json:"from,omitempty"`
	To     string `json:"to,omitempty"`
	Bytes  int    `json:"bytes,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Err    string `json:"err,omitempty"`
}

// tracer records spans from the benchmark's own files, around the calls
// into each layer: a client.call span per op, and — through a decorator
// on the transport.Conn/Handler pair the benchmark hands cluster.NewNode
// — one transport.hop span per replica envelope, from Send to handler
// entry, filed under the open call on the envelope's object key.
type tracer struct {
	t0 time.Time

	mu       sync.Mutex
	nextID   uint64
	spans    []span
	open     map[string]uint64        // object key → most recent open client.call
	inFlight map[hopID][]sentEnvelope // envelopes sent, not yet delivered (FIFO per fingerprint)
	hops     []time.Duration          // every hop's send → handler-entry time
	sizes    []int                    // every envelope's size
}

// hopID matches a delivered envelope to its Send without touching the
// bytes on the wire: the link plus a fingerprint of the envelope's
// length and head (object key, message type, request ID and round all
// sit in the first bytes). Retransmits of one message share an ID and
// are matched in FIFO order.
type hopID struct {
	from, to transport.NodeID
	print    uint64
}

type sentEnvelope struct {
	at     time.Time
	parent uint64
}

func newTracer() *tracer {
	return &tracer{
		t0:       time.Now(),
		open:     map[string]uint64{},
		inFlight: map[hopID][]sentEnvelope{},
	}
}

func fingerprint(payload []byte) uint64 {
	h := fnv.New64a()
	head := payload
	if len(head) > 96 {
		head = head[:96]
	}
	h.Write(head)
	return h.Sum64() ^ uint64(len(payload))*0x9e3779b97f4a7c15
}

func (t *tracer) beginCall(key string, kind opKind) *span {
	name := "update"
	if kind == opRead {
		name = "query"
	}
	now := time.Now()
	t.mu.Lock()
	t.nextID++
	sp := &span{ID: t.nextID, Name: "client.call", Key: key, Op: name, Start: now.Sub(t.t0).Nanoseconds()}
	t.open[key] = sp.ID
	t.mu.Unlock()
	return sp
}

func (t *tracer) endCall(sp *span, err error) {
	sp.End = time.Since(t.t0).Nanoseconds()
	if err != nil {
		sp.Err = err.Error()
	}
	t.mu.Lock()
	if t.open[sp.Key] == sp.ID {
		delete(t.open, sp.Key)
	}
	if len(t.spans) < maxSpans {
		t.spans = append(t.spans, *sp)
	}
	t.mu.Unlock()
}

// tracedConn decorates a node's transport endpoint.
type tracedConn struct {
	transport.Conn
	t *tracer
}

func (t *tracer) wrapConn(c transport.Conn) transport.Conn { return tracedConn{Conn: c, t: t} }

func (c tracedConn) Send(to transport.NodeID, payload []byte) {
	id := hopID{from: c.ID(), to: to, print: fingerprint(payload)}
	key, _, _ := wire.UnpackEnvelope(payload)
	now := time.Now()
	c.t.mu.Lock()
	c.t.inFlight[id] = append(c.t.inFlight[id], sentEnvelope{at: now, parent: c.t.open[key]})
	c.t.mu.Unlock()
	c.Conn.Send(to, payload)
}

func (t *tracer) wrapHandler(self transport.NodeID, h transport.Handler) transport.Handler {
	return func(from transport.NodeID, payload []byte) {
		now := time.Now()
		id := hopID{from: from, to: self, print: fingerprint(payload)}
		t.mu.Lock()
		if q := t.inFlight[id]; len(q) > 0 {
			sent := q[0]
			if len(q) == 1 {
				delete(t.inFlight, id)
			} else {
				t.inFlight[id] = q[1:]
			}
			t.hops = append(t.hops, now.Sub(sent.at))
			t.sizes = append(t.sizes, len(payload))
			if len(t.spans) < maxSpans {
				key, _, _ := wire.UnpackEnvelope(payload)
				t.nextID++
				t.spans = append(t.spans, span{
					ID: t.nextID, Parent: sent.parent, Name: "transport.hop", Key: key,
					From: string(from), To: string(self), Bytes: len(payload),
					Start: sent.at.Sub(t.t0).Nanoseconds(), End: now.Sub(t.t0).Nanoseconds(),
				})
			}
		}
		t.mu.Unlock()
		h(from, payload)
	}
}

// traceFile is what -out/<workload>.trace.json holds.
type traceFile struct {
	Workload string `json:"workload"`
	Seed     uint64 `json:"seed"`
	Note     string `json:"note"`
	Spans    []span `json:"spans"`
}

func (t *tracer) write(path, workloadName string, seed uint64) error {
	t.mu.Lock()
	tf := traceFile{
		Workload: workloadName, Seed: seed, Spans: t.spans,
		Note: "spans recorded by the benchmark around the calls into each layer; a transport.hop's parent is the client.call open on its key when it was sent (0: none, e.g. a straggler reply); times are ns since the trace began; the first 20000 spans are kept",
	}
	data, err := json.Marshal(tf)
	t.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
