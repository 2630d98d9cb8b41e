package wire

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"reflect"
	"strings"
	"testing"
)

// prefixed is the reference framing the frame appenders must match: the
// body's length as a uvarint, then the body.
func prefixed(body []byte) []byte {
	return append(binary.AppendUvarint(nil, uint64(len(body))), body...)
}

func TestRequestRoundTrip(t *testing.T) {
	cases := []Request{
		{Op: OpUpdate, ID: 7, Key: "article/42", CRDTType: "g-counter", Mutation: "inc", Args: [][]byte{{5}}},
		{Op: OpUpdate, ID: 0, Key: "", CRDTType: "or-set", Mutation: "add", Args: [][]byte{[]byte("alice"), nil}},
		{Op: OpQuery, ID: 1 << 40, Key: "sessions/eu"},
		{Op: OpQuery, ID: 2, Key: "or-set/big", Have: testDigest(7)},
		{Op: OpQuery, ID: 2, Key: "or-set/big", Have: testDigest(7), AcceptDelta: true},
		{Op: OpAdmin, ID: 3, Cmd: "ping"},
	}
	for _, in := range cases {
		got, err := DecodeRequest(in.Encode())
		if err != nil {
			t.Fatalf("decode %+v: %v", in, err)
		}
		// Raw() returns nil for empty args; normalize for comparison.
		for i, a := range in.Args {
			if len(a) == 0 {
				in.Args[i] = []byte{}
			}
		}
		for i, a := range got.Args {
			if len(a) == 0 {
				got.Args[i] = []byte{}
			}
		}
		if !reflect.DeepEqual(&in, got) {
			t.Fatalf("round trip mismatch:\n in  %+v\n out %+v", in, *got)
		}
	}
}

func TestResponseRoundTrip(t *testing.T) {
	cases := []Response{
		{Op: OpUpdate | RespBit, ID: 7, Status: StatusOK, RoundTrips: 1},
		{Op: OpQuery | RespBit, ID: 9, Status: StatusOK, RoundTrips: 2, Attempts: 1, Path: 1, State: []byte{1, 2, 3}},
		{Op: OpQuery | RespBit, ID: 10, Status: StatusOK, RoundTrips: 1, Attempts: 1, Path: 2, State: bytes.Repeat([]byte{4}, LargeState), Digest: testDigest(1)},
		{Op: OpQuery | RespBit, ID: 11, Status: StatusOK, RoundTrips: 1, Attempts: 1, Path: 2, Digest: testDigest(2)},
		{Op: OpQuery | RespBit, ID: 12, Status: StatusOK, RoundTrips: 1, Attempts: 1, Path: 2, State: []byte{7, 8}, Digest: testDigest(2), Base: testDigest(1)},
		{Op: OpAdmin | RespBit, ID: 1, Status: StatusOK, Payload: []byte("pong")},
		{Op: OpUpdate | RespBit, ID: 4, Status: StatusUnavailable, Msg: "node crashed"},
		{Op: OpQuery | RespBit, ID: 5, Status: StatusError, Msg: "type mismatch"},
		{Op: OpUpdate | RespBit, ID: 6, Status: StatusBusy, Msg: "in-flight limit"},
		// The busy-close handshake frame: admin op, request ID 0.
		{Op: OpAdmin | RespBit, ID: 0, Status: StatusBusy, Msg: "connection limit"},
	}
	for _, in := range cases {
		got, err := DecodeResponse(in.Encode())
		if err != nil {
			t.Fatalf("decode %+v: %v", in, err)
		}
		if len(got.State) == 0 {
			got.State = in.State[:0]
		}
		if len(got.Payload) == 0 {
			got.Payload = in.Payload[:0]
		}
		if got.Op != in.Op || got.ID != in.ID || got.Status != in.Status ||
			got.RoundTrips != in.RoundTrips || got.Attempts != in.Attempts ||
			got.Path != in.Path || got.Msg != in.Msg || got.Digest != in.Digest || got.Base != in.Base ||
			!bytes.Equal(got.State, in.State) || !bytes.Equal(got.Payload, in.Payload) {
			t.Fatalf("round trip mismatch:\n in  %+v\n out %+v", in, *got)
		}
		if want := in.Status == StatusOK && len(in.State) == 0 && in.Digest != ([DigestSize]byte{}); got.Unchanged() != want {
			t.Fatalf("op %#x id %d: Unchanged() = %v, want %v", in.Op, in.ID, got.Unchanged(), want)
		}
		if want := in.Status == StatusOK && in.Base != ([DigestSize]byte{}); got.Delta() != want {
			t.Fatalf("op %#x id %d: Delta() = %v, want %v", in.Op, in.ID, got.Delta(), want)
		}
	}
}

// testDigest returns a digest whose every byte is b.
func testDigest(b byte) [DigestSize]byte {
	var d [DigestSize]byte
	for i := range d {
		d[i] = b
	}
	return d
}

// TestOptionalDigestFields: a query request's Have and a query response's
// Digest are trailing fields. Absent, the frame is byte for byte what it
// was before they existed; a zero digest is not written; fewer than
// DigestSize trailing bytes are ignored; and a decoder that predates the
// fields reads the rest of the frame unchanged.
func TestOptionalDigestFields(t *testing.T) {
	plain := (&Request{Op: OpQuery, ID: 5, Key: "k"}).Encode()
	if want := []byte{FrameVersion, OpQuery, 5, 1, 'k'}; !bytes.Equal(plain, want) {
		t.Fatalf("digestless query = % x, want % x", plain, want)
	}
	with := (&Request{Op: OpQuery, ID: 5, Key: "k", Have: testDigest(3)}).Encode()
	if !bytes.Equal(with[:len(plain)], plain) || len(with) != len(plain)+DigestSize {
		t.Fatalf("query with Have = % x, want the digestless frame plus %d bytes", with, DigestSize)
	}
	short, err := DecodeRequest(append(plain, make([]byte, DigestSize-1)...))
	if err != nil || short.Have != ([DigestSize]byte{}) {
		t.Fatalf("%d trailing bytes: Have %x, err %v; want ignored", DigestSize-1, short.Have, err)
	}
	// The opt-in flag is one byte after Have; an old server reads Have and
	// ignores it.
	optIn := (&Request{Op: OpQuery, ID: 5, Key: "k", Have: testDigest(3), AcceptDelta: true}).Encode()
	if !bytes.Equal(optIn[:len(with)], with) || !bytes.Equal(optIn[len(with):], []byte{QueryAcceptDelta}) {
		t.Fatalf("opting-in query = % x, want the query with Have plus % x", optIn, QueryAcceptDelta)
	}

	full := Response{Op: OpQuery | RespBit, ID: 5, Status: StatusOK, RoundTrips: 1, Attempts: 1, Path: 1, State: []byte("state")}
	bare := full.Encode()
	full.Digest = testDigest(4)
	digested := full.Encode()
	if !bytes.Equal(digested[:len(bare)], bare) || len(digested) != len(bare)+DigestSize {
		t.Fatalf("response with Digest = % x, want the digestless frame plus %d bytes", digested, DigestSize)
	}
	unchanged := (&Response{Op: OpQuery | RespBit, ID: 5, Status: StatusOK, RoundTrips: 1, Attempts: 1, Path: 1, Digest: testDigest(4)}).Encode()
	// A decoder that knows no digest sees an empty state and ignores the
	// rest; a server sends this form only to a request that carried Have.
	r := NewReader(unchanged)
	r.Fixed(make([]byte, 4)) // version, op, id, status
	r.Uvarint()
	r.Uvarint()
	r.Byte()
	if st := r.Span(); r.Err() != nil || len(st) != 0 {
		t.Fatalf("unchanged reply's state field = %q, %v; want empty", st, r.Err())
	}
	// A delta answer is the full form's bytes plus the base's digest.
	full.Base = testDigest(5)
	if delta := full.Encode(); !bytes.Equal(delta[:len(digested)], digested) || len(delta) != len(digested)+DigestSize {
		t.Fatalf("delta answer = % x, want the digested frame plus %d bytes", delta, DigestSize)
	}
}

// TestResponseStatusRoundTrip is the exhaustive property test of the
// status path: for every op × every defined status code (plus unknown
// future codes, which §2.7 rule 3 obliges peers to carry opaquely), an
// encoded response must decode back to the identical status and message.
// The non-OK body shape is shared across ops, so this is the surface a
// client's entire error taxonomy rides on.
func TestResponseStatusRoundTrip(t *testing.T) {
	ops := []byte{OpUpdate | RespBit, OpQuery | RespBit, OpAdmin | RespBit}
	statuses := []byte{StatusUnavailable, StatusUncertain, StatusBadRequest, StatusError, StatusBusy, 9, 255}
	msgs := []string{"", "node crashed", "unicode état ⊥", string(make([]byte, 4096))}
	for _, op := range ops {
		for _, status := range statuses {
			for _, msg := range msgs {
				in := Response{Op: op, ID: 1<<63 + 7, Status: status, Msg: msg}
				got, err := DecodeResponse(in.Encode())
				if err != nil {
					t.Fatalf("op 0x%02x status %d: decode: %v", op, status, err)
				}
				if got.Op != in.Op || got.ID != in.ID || got.Status != in.Status || got.Msg != in.Msg {
					t.Fatalf("op 0x%02x status %d: round trip mismatch:\n in  %+v\n out %+v", op, status, in, *got)
				}
				// Error-status bodies must not leak OK-only fields.
				if got.RoundTrips != 0 || got.Attempts != 0 || got.Path != 0 || got.State != nil || got.Payload != nil {
					t.Fatalf("op 0x%02x status %d: non-OK decode populated OK fields: %+v", op, status, *got)
				}
			}
		}
	}
}

func TestDecodeRequestRejects(t *testing.T) {
	cases := map[string][]byte{
		"empty":         {},
		"bad version":   {99, OpQuery, 1, 0},
		"unknown op":    {FrameVersion, 0x7f, 1},
		"response op":   {FrameVersion, OpQuery | RespBit, 1, 0},
		"truncated key": {FrameVersion, OpQuery, 1, 200},
		"truncated varint": append([]byte{FrameVersion, OpUpdate, 1},
			0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff),
	}
	for name, frame := range cases {
		if _, err := DecodeRequest(frame); err == nil {
			t.Errorf("%s: decoded without error", name)
		}
	}
	// Oversized arg count.
	w := NewWriter(16)
	w.Byte(FrameVersion)
	w.Byte(OpUpdate)
	w.Uvarint(1)
	w.Str("k")
	w.Str("g-counter")
	w.Str("inc")
	w.Uvarint(MaxArgs + 1)
	if _, err := DecodeRequest(w.Bytes()); err == nil {
		t.Error("oversized arg count decoded without error")
	}
	// Oversized frame.
	if _, err := DecodeRequest(make([]byte, MaxFrame+1)); !errors.Is(err, ErrFrameTooLarge) {
		t.Errorf("oversized frame: got %v, want ErrFrameTooLarge", err)
	}
}

func TestDecodeRequestToleratesTrailingBytes(t *testing.T) {
	frame := (&Request{Op: OpQuery, ID: 2, Key: "k"}).Encode()
	frame = append(frame, 0xde, 0xad)
	req, err := DecodeRequest(frame)
	if err != nil {
		t.Fatalf("trailing bytes rejected: %v", err)
	}
	if req.Key != "k" || req.ID != 2 {
		t.Fatalf("decoded %+v", req)
	}
}

func TestDecodeResponseRejects(t *testing.T) {
	cases := map[string][]byte{
		"empty":             {},
		"bad version":       {42, OpQuery | RespBit, 1, StatusOK},
		"missing bit":       {FrameVersion, OpQuery, 1, StatusOK},
		"unknown op":        {FrameVersion, 0x7f | RespBit, 1, StatusOK},
		"unknown op non-ok": {FrameVersion, 0x7f | RespBit, 1, StatusUnavailable, 0},
		"truncated ok":      {FrameVersion, OpQuery | RespBit, 1, StatusOK, 1},
	}
	for name, frame := range cases {
		if _, err := DecodeResponse(frame); err == nil {
			t.Errorf("%s: decoded without error", name)
		}
	}
}

func TestFrameIO(t *testing.T) {
	var buf bytes.Buffer
	frames := [][]byte{{1}, bytes.Repeat([]byte{7}, 1000), {}}
	for _, f := range frames {
		buf.Write(prefixed(f))
	}
	br := bufio.NewReader(&buf)
	for i, want := range frames {
		got, err := ReadFrame(br)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("frame %d: got %d bytes, want %d", i, len(got), len(want))
		}
	}
	// A length prefix over the limit must be rejected before allocation.
	var huge bytes.Buffer
	w := NewWriter(16)
	w.Uvarint(MaxFrame + 1)
	huge.Write(w.Bytes())
	if _, err := ReadFrame(bufio.NewReader(&huge)); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("oversized prefix: got %v, want ErrFrameTooLarge", err)
	}
	// A body over the limit is refused before anything is appended.
	big := Request{Op: OpAdmin, Cmd: strings.Repeat("x", MaxFrame)}
	if got, err := big.AppendFrame([]byte("kept")); !errors.Is(err, ErrFrameTooLarge) || string(got) != "kept" {
		t.Fatalf("oversized request: got %q, %v; want b unchanged and ErrFrameTooLarge", got, err)
	}
}

// FuzzDecodeRequest asserts the request decoder never panics and that
// every frame it accepts re-encodes decodably (malformed, truncated, and
// oversized inputs must error out instead).
func FuzzDecodeRequest(f *testing.F) {
	f.Add((&Request{Op: OpUpdate, ID: 1, Key: "k", CRDTType: "g-counter", Mutation: "inc", Args: [][]byte{{1}}}).Encode())
	f.Add((&Request{Op: OpQuery, ID: 2, Key: "obj/1"}).Encode())
	f.Add((&Request{Op: OpQuery, ID: 2, Key: "or-set/1", Have: testDigest(9)}).Encode())
	f.Add((&Request{Op: OpQuery, ID: 2, Key: "or-set/1", Have: testDigest(9), AcceptDelta: true}).Encode())
	f.Add(append((&Request{Op: OpQuery, ID: 2, Key: "or-set/1", Have: testDigest(9), AcceptDelta: true}).Encode(), 0xfe, 1))
	f.Add(append((&Request{Op: OpQuery, ID: 2, Key: "obj/1"}).Encode(), 1, 2, 3))
	f.Add((&Request{Op: OpAdmin, ID: 3, Cmd: "keys"}).Encode())
	f.Add([]byte{FrameVersion, OpUpdate})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, frame []byte) {
		req, err := DecodeRequest(frame)
		if err != nil {
			return
		}
		again, err := DecodeRequest(req.Encode())
		if err != nil {
			t.Fatalf("accepted frame re-encodes undecodably: %v", err)
		}
		if again.Key != req.Key || again.Have != req.Have || again.AcceptDelta != req.AcceptDelta {
			t.Fatalf("query fields not idempotent:\n first  %+v\n second %+v", *req, *again)
		}
	})
}

// FuzzDecodeResponse is the response-side twin of FuzzDecodeRequest,
// with a stronger property on the status path: beyond re-encoding
// decodably, every accepted frame must round-trip encode→decode to the
// identical response — in particular the status code and message, which
// carry the client's whole error taxonomy. The seeds cover every defined
// error status plus an unknown future code.
func FuzzDecodeResponse(f *testing.F) {
	f.Add((&Response{Op: OpQuery | RespBit, ID: 1, Status: StatusOK, State: []byte{1}}).Encode())
	f.Add((&Response{Op: OpUpdate | RespBit, ID: 2, Status: StatusUnavailable, Msg: "x"}).Encode())
	f.Add((&Response{Op: OpQuery | RespBit, ID: 3, Status: StatusUncertain, Msg: "timed out mid-protocol"}).Encode())
	f.Add((&Response{Op: OpAdmin | RespBit, ID: 4, Status: StatusBadRequest, Msg: "unknown admin command"}).Encode())
	f.Add((&Response{Op: OpUpdate | RespBit, ID: 5, Status: StatusError, Msg: "type mismatch"}).Encode())
	f.Add((&Response{Op: OpQuery | RespBit, ID: 6, Status: 9, Msg: "status from the future"}).Encode())
	f.Add((&Response{Op: OpUpdate | RespBit, ID: 8, Status: StatusBusy, Msg: "in-flight limit"}).Encode())
	f.Add((&Response{Op: OpAdmin | RespBit, ID: 0, Status: StatusBusy, Msg: "connection limit"}).Encode())
	f.Add((&Response{Op: OpUpdate | RespBit, ID: 7, Status: StatusUnavailable}).Encode())
	// A large query state: its length takes a three-byte varint.
	f.Add((&Response{Op: OpQuery | RespBit, ID: 9, Status: StatusOK, RoundTrips: 1, Attempts: 1, Path: 1, State: bytes.Repeat([]byte("elem-000001"), 4000)}).Encode())
	// A large state with its digest, and the "unchanged" reply: a digest
	// and no state.
	f.Add((&Response{Op: OpQuery | RespBit, ID: 10, Status: StatusOK, RoundTrips: 1, Attempts: 1, Path: 2, State: bytes.Repeat([]byte("elem-000001"), 100), Digest: testDigest(5)}).Encode())
	f.Add((&Response{Op: OpQuery | RespBit, ID: 11, Status: StatusOK, RoundTrips: 1, Attempts: 1, Path: 2, Digest: testDigest(6)}).Encode())
	// A delta answer: a small state, the learned state's digest and the
	// base's.
	f.Add((&Response{Op: OpQuery | RespBit, ID: 12, Status: StatusOK, RoundTrips: 1, Attempts: 1, Path: 1, State: []byte("elem-000001"), Digest: testDigest(7), Base: testDigest(6)}).Encode())
	f.Add([]byte{FrameVersion})
	f.Fuzz(func(t *testing.T, frame []byte) {
		resp, err := DecodeResponse(frame)
		if err != nil {
			return
		}
		again, err := DecodeResponse(resp.Encode())
		if err != nil {
			t.Fatalf("accepted frame re-encodes undecodably: %v", err)
		}
		if again.Op != resp.Op || again.ID != resp.ID || again.Status != resp.Status || again.Msg != resp.Msg ||
			again.RoundTrips != resp.RoundTrips || again.Attempts != resp.Attempts || again.Path != resp.Path ||
			again.Digest != resp.Digest || again.Base != resp.Base || !bytes.Equal(again.State, resp.State) || !bytes.Equal(again.Payload, resp.Payload) {
			t.Fatalf("encode/decode not idempotent:\n first  %+v\n second %+v", *resp, *again)
		}
	})
}

// responseShapes covers every response body: an OK answer of each op, a
// failure of each op, and an empty-bodied OK query.
func responseShapes() []Response {
	return []Response{
		{Op: OpUpdate | RespBit, ID: 7, Status: StatusOK, RoundTrips: 1},
		{Op: OpQuery | RespBit, ID: 1 << 40, Status: StatusOK, RoundTrips: 300, Attempts: 2, Path: 1, State: []byte{1, 2, 3}},
		{Op: OpQuery | RespBit, ID: 9, Status: StatusOK, State: bytes.Repeat([]byte{5}, 70_000)},
		{Op: OpQuery | RespBit, ID: 10, Status: StatusOK},
		{Op: OpQuery | RespBit, ID: 11, Status: StatusOK, State: bytes.Repeat([]byte{6}, 2000), Digest: testDigest(1)},
		{Op: OpQuery | RespBit, ID: 12, Status: StatusOK, Digest: testDigest(2)},
		{Op: OpQuery | RespBit, ID: 13, Status: StatusOK, State: []byte{7}, Digest: testDigest(3), Base: testDigest(2)},
		{Op: OpAdmin | RespBit, ID: 1, Status: StatusOK, Payload: []byte("pong")},
		{Op: OpUpdate | RespBit, ID: 4, Status: StatusUncertain, Msg: "timed out"},
		{Op: OpQuery | RespBit, ID: 5, Status: StatusError, Msg: "type mismatch"},
		{Op: OpAdmin | RespBit, ID: 0, Status: StatusBusy, Msg: "connection limit"},
	}
}

// TestAppendFrameMatchesWriteFrame: a request's and a response's
// AppendFrame, appendFrameHead followed by the trailing field's bytes,
// and PrependFrameHead in front of them write exactly the length prefix
// followed by Encode, into the tail of the caller's buffer.
func TestAppendFrameMatchesWriteFrame(t *testing.T) {
	prefix := []byte("kept")
	for _, r := range []Request{
		{Op: OpUpdate, ID: 1 << 33, Key: "article/42", CRDTType: "or-set", Mutation: "add", Args: [][]byte{[]byte("alice"), nil, bytes.Repeat([]byte{9}, 300)}},
		{Op: OpQuery, ID: 7, Key: strings.Repeat("k", 200)},
		{Op: OpQuery, ID: 8, Key: "or-set/big", Have: testDigest(3)},
		{Op: OpQuery, ID: 9, Key: "or-set/big", Have: testDigest(3), AcceptDelta: true},
		{Op: OpAdmin, ID: 0, Cmd: "keys"},
	} {
		got, err := r.AppendFrame(append([]byte{}, prefix...))
		if err != nil {
			t.Fatalf("request op %#x: %v", r.Op, err)
		}
		if !bytes.HasPrefix(got, prefix) || !bytes.Equal(got[len(prefix):], prefixed(r.Encode())) {
			t.Fatalf("request op %#x: AppendFrame differs from the length prefix and Encode()", r.Op)
		}
	}
	for _, r := range responseShapes() {
		want := prefixed(r.Encode())
		got, err := r.AppendFrame(append([]byte{}, prefix...))
		if err != nil {
			t.Fatalf("%+v: %v", r.Op, err)
		}
		if !bytes.HasPrefix(got, prefix) || !bytes.Equal(got[len(prefix):], want) {
			t.Fatalf("op %#x status %d: AppendFrame differs from the length prefix and Encode()", r.Op, r.Status)
		}
		if r.Status == StatusOK && r.Op == OpQuery|RespBit {
			// The state, then the digests when there are any.
			state := r.AppendDigests(append([]byte{}, r.State...))
			r.State = nil // the head must not read the state it is told the length of
			head, err := r.appendFrameHead(nil, len(state)-r.digestLen())
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(append(head, state...), want) {
				t.Fatalf("query of %d state bytes: appendFrameHead + state differs from the length prefix and Encode()", len(state))
			}
			off := len(prefix) + MaxFrameHead
			b := append(append(append([]byte{}, prefix...), make([]byte, MaxFrameHead)...), state...)
			frame, err := r.PrependFrameHead(b, off)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(frame, want) || &frame[len(frame)-1] != &b[len(b)-1] {
				t.Fatalf("query of %d state bytes: PrependFrameHead does not frame the state in place", len(state))
			}
		}
	}
}

func TestAppendFrameHeadRejectsOversizedBeforeEncoding(t *testing.T) {
	r := Response{Op: OpQuery | RespBit, ID: 3, Status: StatusOK}
	b := []byte("kept")
	got, err := r.appendFrameHead(b, MaxFrame)
	if !errors.Is(err, ErrFrameTooLarge) || !bytes.Equal(got, b) {
		t.Fatalf("got %q, %v; want b unchanged and ErrFrameTooLarge", got, err)
	}
	if _, err := r.appendFrameHead(nil, MaxFrame-16); err != nil {
		t.Fatalf("a state that fits: %v", err)
	}
}

// TestDecodeResponseStateAliasesFrame: a decoded query's State is a
// capped subslice of the frame, so reading a response copies its state
// once, off the socket.
func TestDecodeResponseStateAliasesFrame(t *testing.T) {
	frame := (&Response{Op: OpQuery | RespBit, ID: 1, Status: StatusOK, State: []byte("abc")}).Encode()
	resp, err := DecodeResponse(frame)
	if err != nil {
		t.Fatal(err)
	}
	frame[len(frame)-1] = 'z'
	if string(resp.State) != "abz" {
		t.Fatalf("State = %q, want a view of the frame", resp.State)
	}
	if cap(resp.State) != len(resp.State) {
		t.Fatalf("State cap %d, want %d: an append could write into the frame", cap(resp.State), len(resp.State))
	}
}
