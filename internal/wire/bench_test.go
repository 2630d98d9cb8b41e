package wire

import (
	"fmt"
	"testing"

	"crdtsmr/internal/crdt"
)

// The hot encode paths — protocol messages, state frames, envelopes —
// promise exactly one allocation per encoded frame: the output buffer
// itself. A query response frame, and a request frame, appended into a
// reused buffer promise none, and decoding a response allocates only the
// Response. These tests pin those promises with AllocsPerRun so a
// regression (an escaping Writer, an undersized buffer forcing append to
// grow, a copied state) fails the suite, and the benchmarks report allocs/op for the CI bench-smoke
// guard (`go test -bench . -benchmem ./internal/wire/`).

// encodeRepresentative builds a frame shaped like the protocol's VOTE
// with a delta state transfer — the widest layout on the hot path: a
// type byte, request/attempt varints, a round (number + proposer +
// sequence), and a delta state frame (two digests plus payload).
func encodeRepresentative(proposer string, payload []byte) []byte {
	var digest, baseline [DigestSize]byte
	w := MakeWriter(make([]byte, 0, 128+2*len(proposer)+len(payload)))
	w.Byte(0x05)
	w.Uvarint(42)   // request ID
	w.Uvarint(3)    // attempt
	w.Varint(17)    // round number
	w.Str(proposer) // round ID proposer
	w.Uvarint(9)    // round ID sequence
	StateFrame{Kind: StateDelta, State: payload, Digest: digest, Baseline: baseline}.Append(&w)
	return w.Bytes()
}

// bigSet is a 1,000-element or-set, the large-set workload's state.
func bigSet() crdt.State {
	s := crdt.NewORSet()
	for i := 0; i < 1000; i++ {
		s = s.Add(fmt.Sprintf("elem-%06d", i), "n1", uint64(i+1))
	}
	return s
}

// appendQueryFrame builds an OK query response frame the way the server
// does, the state encoded once past a reserve and the head written in
// front of it, and returns the buffer holding the frame.
func appendQueryFrame(b []byte, st crdt.State) []byte {
	r := Response{Op: OpQuery | RespBit, ID: 1 << 20, Status: StatusOK, RoundTrips: 1, Attempts: 1, Path: 2}
	off := len(b) + MaxFrameHead
	b, err := crdt.AppendMarshal(append(b, make([]byte, MaxFrameHead)...), st)
	if err != nil {
		panic(err)
	}
	if _, err := r.PrependFrameHead(b, off); err != nil {
		panic(err)
	}
	return b
}

func TestEncodeAllocs(t *testing.T) {
	payload := make([]byte, 512)
	frame := PackEnvelope("accounts/alice", payload)
	set := bigSet()
	buf := appendQueryFrame(nil, set)
	resp := (&Response{Op: OpQuery | RespBit, ID: 1, Status: StatusOK, State: make([]byte, 44_000)}).Encode()
	req := Request{Op: OpUpdate, ID: 1 << 20, Key: "or-set/7", CRDTType: "or-set", Mutation: "add", Args: [][]byte{[]byte("elem-000042")}}
	reqBuf, _ := req.AppendFrame(nil)
	small := crdt.NewORSet().Add("elem-000042", "n1", 1)
	smallBuf := appendQueryFrame(nil, small)
	unchanged := Response{Op: OpQuery | RespBit, ID: 1 << 20, Status: StatusOK, RoundTrips: 1, Attempts: 1, Path: 2, Digest: [DigestSize]byte{1}}
	unchangedBuf, _ := unchanged.AppendFrame(nil)
	query := Request{Op: OpQuery, ID: 1 << 20, Key: "or-set/7", Have: [DigestSize]byte{1}}
	queryBuf, _ := query.AppendFrame(nil)
	cases := []struct {
		name string
		want float64
		fn   func()
	}{
		{"message", 1, func() { encodeRepresentative("n1", payload) }},
		{"envelope", 1, func() { PackEnvelope("accounts/alice", payload) }},
		// Unpacking borrows the frame's tail for the payload; its single
		// allocation is the objectID string.
		{"unpack", 1, func() { _, _, _ = UnpackEnvelope(frame) }},
		// A query response frame is appended into a reused buffer, the
		// state encoded in place: nothing is allocated.
		{"query-frame", 0, func() { buf = appendQueryFrame(buf[:0], set) }},
		{"small-query-frame", 0, func() { smallBuf = appendQueryFrame(smallBuf[:0], small) }},
		// An "unchanged" answer is a head and a digest: no state at all.
		{"unchanged-frame", 0, func() { unchangedBuf, _ = unchanged.AppendFrame(unchangedBuf[:0]) }},
		// A query naming the state its client holds.
		{"query-request-frame", 0, func() { queryBuf, _ = query.AppendFrame(queryBuf[:0]) }},
		// A request frame is appended into the connection's reused buffer.
		{"request-frame", 0, func() { reqBuf, _ = req.AppendFrame(reqBuf[:0]) }},
		// Decoding borrows the frame for the state; the one allocation is
		// the Response.
		{"decode-response", 1, func() { _, _ = DecodeResponse(resp) }},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			if got := testing.AllocsPerRun(200, tc.fn); got > tc.want {
				t.Fatalf("%s: %.1f allocs/op, want ≤ %.0f", tc.name, got, tc.want)
			}
		})
	}
}

func BenchmarkEncodeMessage(b *testing.B) {
	payload := make([]byte, 512)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		encodeRepresentative("n1", payload)
	}
}

func BenchmarkPackEnvelope(b *testing.B) {
	payload := make([]byte, 512)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		PackEnvelope("accounts/alice", payload)
	}
}

func BenchmarkUnpackEnvelope(b *testing.B) {
	frame := PackEnvelope("accounts/alice", make([]byte, 512))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := UnpackEnvelope(frame); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkStateFrameAppend(b *testing.B) {
	payload := make([]byte, 512)
	var digest, baseline [DigestSize]byte
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		w := MakeWriter(make([]byte, 0, 1+2*DigestSize+8+len(payload)))
		StateFrame{Kind: StateDelta, State: payload, Digest: digest, Baseline: baseline}.Append(&w)
	}
}

func BenchmarkAppendQueryFrame(b *testing.B) {
	set := bigSet()
	buf := appendQueryFrame(nil, set)
	b.SetBytes(int64(len(buf)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = appendQueryFrame(buf[:0], set)
	}
}

func BenchmarkDecodeResponse(b *testing.B) {
	state, err := crdt.Marshal(bigSet())
	if err != nil {
		b.Fatal(err)
	}
	body := (&Response{Op: OpQuery | RespBit, ID: 1 << 20, Status: StatusOK, RoundTrips: 1, Attempts: 1, Path: 2, State: state}).Encode()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := DecodeResponse(body); err != nil {
			b.Fatal(err)
		}
	}
}
