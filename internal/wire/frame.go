package wire

// The client frame format is the second wire layer of the repository: the
// request/response protocol spoken between the public crdtsmr/client
// package and
// internal/server, layered over length-prefixed TCP framing like the
// replica transport but with its own header so the two can evolve
// independently. docs/PROTOCOL.md is the normative byte-level spec;
// this file is its reference implementation.
//
// Every frame starts [version u8][op u8][request id uvarint]. Responses
// echo the request's op with RespBit set and its request ID, so clients
// can pipeline many requests over one connection and match replies out of
// order. Trailing bytes after a known body are ignored (forward
// compatibility: future versions may append fields); every other decoding
// irregularity is an error — decoders never panic on malformed input.

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// FrameVersion is the client protocol version this build speaks. A peer
// receiving a frame of a different version drops the connection — the
// rest of the header cannot be trusted (docs/PROTOCOL.md §2.7).
const FrameVersion = 1

// MaxFrame bounds one client frame (header + body) in bytes, protecting
// both sides against corrupt or hostile length prefixes.
const MaxFrame = 4 << 20

// LargeState is the encoded state size, in bytes, from which a state is
// named by digest on either wire: a query's trailing digest here
// (docs/PROTOCOL.md §2.4) and the replica wire's digest and delta frames
// (§3). Below it a state is cheaper to ship than to fingerprint.
const LargeState = 1 << 10

// MaxArgs bounds the operand count of an update request; encoders must
// enforce it (the decoder rejects it, and the server answers an
// undecodable frame by dropping the connection).
const MaxArgs = 64

// Client frame ops. A response's op is the request's op with RespBit set.
const (
	// OpUpdate applies a named mutation to one object (at-least-once on
	// client retry; see docs/PROTOCOL.md §Retries).
	OpUpdate byte = 0x01
	// OpQuery learns a linearizable state of one object.
	OpQuery byte = 0x02
	// OpAdmin carries a cluster-management command ("ping", "keys").
	OpAdmin byte = 0x03
	// RespBit marks response frames.
	RespBit byte = 0x80
)

// Mutation names accepted in update requests, per CRDT type (the server's
// ops table is the authority; docs/PROTOCOL.md lists operands):
//
//	g-counter:    inc(n)
//	pn-counter:   inc(n), dec(n)
//	or-set:       add(element), remove(element)
//	lww-register: set(value)
const (
	MutInc    = "inc"
	MutDec    = "dec"
	MutAdd    = "add"
	MutRemove = "remove"
	MutSet    = "set"
)

// Response status codes.
const (
	// StatusOK: the operation completed.
	StatusOK byte = 0
	// StatusUnavailable: the replica refused the operation before running
	// the protocol (crashed or shutting down). The operation was NOT
	// applied; retrying it on another replica is always safe.
	StatusUnavailable byte = 1
	// StatusUncertain: the operation was accepted but its fate is unknown
	// (e.g. it timed out mid-protocol). An update may or may not have been
	// applied; only queries are safe to retry automatically.
	StatusUncertain byte = 2
	// StatusBadRequest: the frame was malformed, of an unknown version, or
	// named an unknown op/mutation. Retrying the same frame cannot succeed.
	StatusBadRequest byte = 3
	// StatusError: the operation ran and failed terminally (e.g. mutation
	// applied to an object of a different CRDT type).
	StatusError byte = 4
	// StatusBusy: the server shed the operation (or, with request ID 0,
	// the whole connection) at admission, before any of it executed —
	// its connection or in-flight limit is exceeded. The operation was
	// NOT applied; retrying anywhere is safe, but the client must back
	// off first (docs/PROTOCOL.md §2.5).
	StatusBusy byte = 5
)

// ErrFrameTooLarge is returned for frames exceeding MaxFrame.
var ErrFrameTooLarge = errors.New("wire: frame exceeds size limit")

// ErrVersion is returned for frames of an unknown protocol version.
var ErrVersion = errors.New("wire: unsupported frame version")

// Request is one decoded client request frame.
type Request struct {
	Op  byte
	ID  uint64
	Key string // object key (update, query)

	// Update fields: the registered CRDT type the client believes the
	// object holds, the mutation name, and its operands.
	CRDTType string
	Mutation string
	Args     [][]byte

	// Admin field.
	Cmd string

	// Query fields: the digest of the state the client holds for Key from
	// an earlier large read, or zero for none, and whether the client
	// takes a delta against that state. A server whose learned state has
	// the digest Have answers "unchanged" (Response.Unchanged); with
	// AcceptDelta set, one that holds the state Have names may answer
	// with the learned state's delta against it (Response.Delta).
	Have        [DigestSize]byte
	AcceptDelta bool
}

// Query flags, the optional byte after a query's have.
const (
	// QueryAcceptDelta: the client takes a delta answer (Response.Delta).
	QueryAcceptDelta byte = 0x01
)

// Encode renders the request as a frame body, without the outer length
// prefix (see AppendFrame).
func (r *Request) Encode() []byte { return r.appendBody(make([]byte, 0, 64)) }

// AppendFrame appends the request to b as one length-prefixed frame:
// [uvarint len][Encode()]. The body is encoded past a reserve for the
// prefix and moved down behind it, so the frame needs no buffer of its
// own. It fails with ErrFrameTooLarge, returning b unchanged, when the
// body exceeds MaxFrame.
func (r *Request) AppendFrame(b []byte) ([]byte, error) {
	start, off := len(b), len(b)+binary.MaxVarintLen64
	b = r.appendBody(append(b, make([]byte, binary.MaxVarintLen64)...))
	n := len(b) - off
	if n > MaxFrame {
		return b[:start], ErrFrameTooLarge
	}
	prefix := binary.PutUvarint(b[start:], uint64(n))
	copy(b[start+prefix:], b[off:])
	return b[:start+prefix+n], nil
}

// appendBody appends the request's frame body to b.
func (r *Request) appendBody(b []byte) []byte {
	w := MakeWriter(b)
	w.Byte(FrameVersion)
	w.Byte(r.Op)
	w.Uvarint(r.ID)
	switch r.Op {
	case OpUpdate:
		w.Str(r.Key)
		w.Str(r.CRDTType)
		w.Str(r.Mutation)
		w.Uvarint(uint64(len(r.Args)))
		for _, a := range r.Args {
			w.Raw(a)
		}
	case OpQuery:
		w.Str(r.Key)
		if r.Have != ([DigestSize]byte{}) || r.AcceptDelta {
			w.Fixed(r.Have[:])
		}
		if r.AcceptDelta {
			w.Byte(QueryAcceptDelta)
		}
	case OpAdmin:
		w.Str(r.Cmd)
	}
	return w.Bytes()
}

// DecodeRequest parses a request frame body. It returns an error — never
// panics — on truncated, oversized, or otherwise malformed input.
func DecodeRequest(frame []byte) (*Request, error) {
	if len(frame) > MaxFrame {
		return nil, ErrFrameTooLarge
	}
	r := NewReader(frame)
	if v := r.Byte(); r.Err() == nil && v != FrameVersion {
		return nil, fmt.Errorf("%w: %d", ErrVersion, v)
	}
	req := &Request{Op: r.Byte(), ID: r.Uvarint()}
	switch req.Op {
	case OpUpdate:
		req.Key = r.Str()
		req.CRDTType = r.Str()
		req.Mutation = r.Str()
		n := r.Uvarint()
		if r.Err() == nil && n > MaxArgs {
			return nil, fmt.Errorf("wire: %d update args exceeds limit %d", n, MaxArgs)
		}
		for i := uint64(0); i < n && r.Err() == nil; i++ {
			req.Args = append(req.Args, r.Raw())
		}
	case OpQuery:
		req.Key = r.Str()
		if optDigest(r, &req.Have) && len(r.b) > 0 {
			req.AcceptDelta = r.Byte()&QueryAcceptDelta != 0
		}
	case OpAdmin:
		req.Cmd = r.Str()
	default:
		if r.Err() == nil {
			return nil, fmt.Errorf("wire: unknown request op 0x%02x", req.Op)
		}
	}
	if err := r.Err(); err != nil {
		return nil, err
	}
	// Trailing bytes are tolerated: future minor revisions may append
	// fields to a body without breaking older decoders.
	return req, nil
}

// optDigest reads an optional trailing digest into dst and reports
// whether it did: the next DigestSize bytes when that many remain, else
// nothing (fewer bytes are trailing bytes, ignored like any others). A
// zero digest reads as absent, so an encoder that appends a later field
// writes zeros here when it has no digest.
func optDigest(r *Reader, dst *[DigestSize]byte) bool {
	if r.err != nil || len(r.b) < DigestSize {
		return false
	}
	r.Fixed(dst[:])
	return true
}

// Response is one decoded client response frame.
type Response struct {
	Op     byte // request op with RespBit set
	ID     uint64
	Status byte

	// StatusOK bodies.
	RoundTrips uint64
	Attempts   uint64 // query only
	Path       byte   // query only: core.LearnPath
	State      []byte // query only: crdt.Marshal encoding; decoded, a subslice of the frame
	Payload    []byte // admin only

	// Digest is a query's state digest (crdt.DigestOf), or zero. A server
	// sets it only for a state of at least LargeState bytes; with an empty
	// State it means "unchanged" (Unchanged).
	Digest [DigestSize]byte
	// Base is set only in a delta answer (Delta): it is the digest of the
	// state the request held (its Have), and State is the learned state's
	// delta against that state. Digest names the learned state.
	Base [DigestSize]byte

	// Non-OK bodies.
	Msg string
}

// Unchanged reports whether r is an OK query answered by digest alone: the
// learned state is the one whose digest the request carried as Have.
func (r *Response) Unchanged() bool {
	return r.okQuery() && len(r.State) == 0 && r.Digest != [DigestSize]byte{} && r.Base == [DigestSize]byte{}
}

// Delta reports whether r is an OK query answered by delta: the learned
// state, whose digest is Digest, is the join of the state named Base,
// which the request carried as Have, and State.
func (r *Response) Delta() bool {
	return r.okQuery() && r.Base != [DigestSize]byte{}
}

func (r *Response) okQuery() bool { return r.Status == StatusOK && r.Op == OpQuery|RespBit }

// maxRespHead bounds a response body's fields before the bytes of its
// trailing one: four one-byte fields and four varints.
const maxRespHead = 4 + 4*binary.MaxVarintLen64

// Encode renders the response as a frame body.
func (r *Response) Encode() []byte {
	n := r.tailLen()
	return r.appendTail(r.appendHead(make([]byte, 0, maxRespHead+n+r.digestLen()), n))
}

// AppendFrame appends the response to b as one length-prefixed frame:
// [uvarint len][Encode()]. It fails with ErrFrameTooLarge, returning b
// unchanged, when the body exceeds MaxFrame.
func (r *Response) AppendFrame(b []byte) ([]byte, error) {
	b, err := r.appendFrameHead(b, r.tailLen())
	if err != nil {
		return b, err
	}
	return r.appendTail(b), nil
}

// appendFrameHead appends the response's frame up to the bytes of its
// trailing field, which the caller appends next and which must be
// exactly tailLen bytes long, followed by the query's digests when it has
// any: the frame length, the header and the trailing field's length
// prefix. The trailing field is the message of a failure, the state of a
// query and the payload of an admin answer; an OK update has none, and
// its tailLen must be 0. It fails with ErrFrameTooLarge, returning b
// unchanged, when the body would exceed MaxFrame, before anything is
// encoded.
func (r *Response) appendFrameHead(b []byte, tailLen int) ([]byte, error) {
	var buf [maxRespHead]byte
	head := r.appendHead(buf[:0], tailLen)
	n := len(head) + tailLen + r.digestLen()
	if n > MaxFrame {
		return b, ErrFrameTooLarge
	}
	b = binary.AppendUvarint(b, uint64(n))
	return append(b, head...), nil
}

// MaxFrameHead bounds what appendFrameHead appends: the frame length and
// the body's fields before the bytes of its trailing one.
const MaxFrameHead = binary.MaxVarintLen64 + maxRespHead

// PrependFrameHead completes a frame whose trailing field was encoded
// first. b[off:] holds the trailing field, then r's digests
// (AppendDigests), and off ≥ MaxFrameHead bytes are reserved in front of
// it; appendFrameHead's bytes go into the end of that reserve, and the frame,
// a subslice of b, is returned. A server builds an OK query's frame this
// way, encoding the state with crdt.AppendMarshal at the reserved offset,
// so the state is walked once, into bytes equal to AppendFrame's with
// State set to crdt.Marshal(st). It fails with ErrFrameTooLarge,
// returning b, when the body exceeds MaxFrame.
func (r *Response) PrependFrameHead(b []byte, off int) ([]byte, error) {
	var buf [MaxFrameHead]byte
	head, err := r.appendFrameHead(buf[:0], len(b)-off-r.digestLen())
	if err != nil {
		return b, err
	}
	start := off - len(head)
	copy(b[start:], head)
	return b[start:], nil
}

// appendHead appends the body's fields up to the bytes of its trailing
// one, ending with that field's length prefix, tailLen. It is the one
// field writer behind Encode and appendFrameHead. (It appends to a slice
// rather than a Writer so appendFrameHead's head stays on the stack.)
func (r *Response) appendHead(b []byte, tailLen int) []byte {
	b = append(b, FrameVersion, r.Op)
	b = binary.AppendUvarint(b, r.ID)
	b = append(b, r.Status)
	if r.Status != StatusOK {
		return binary.AppendUvarint(b, uint64(tailLen)) // Msg
	}
	switch r.Op &^ RespBit {
	case OpUpdate:
		b = binary.AppendUvarint(b, r.RoundTrips)
	case OpQuery:
		b = binary.AppendUvarint(b, r.RoundTrips)
		b = binary.AppendUvarint(b, r.Attempts)
		b = append(b, r.Path)
		b = binary.AppendUvarint(b, uint64(tailLen)) // State
	case OpAdmin:
		b = binary.AppendUvarint(b, uint64(tailLen)) // Payload
	}
	return b
}

// tailLen is the length of the body's trailing field (see appendTail).
func (r *Response) tailLen() int {
	if r.Status != StatusOK {
		return len(r.Msg)
	}
	switch r.Op &^ RespBit {
	case OpQuery:
		return len(r.State)
	case OpAdmin:
		return len(r.Payload)
	}
	return 0
}

// digestLen is the length of the digests that follow an OK query's state:
// two when Base is set (Digest, then Base), one when only Digest is,
// else none.
func (r *Response) digestLen() int {
	switch {
	case r.Status != StatusOK || r.Op&^RespBit != OpQuery:
		return 0
	case r.Base != [DigestSize]byte{}:
		return 2 * DigestSize
	case r.Digest != [DigestSize]byte{}:
		return DigestSize
	}
	return 0
}

// appendTail appends the bytes of the body's trailing field: Msg, State
// or Payload by status and op, nothing for an OK update; an OK query's
// digests, when set, follow its state (AppendDigests).
func (r *Response) appendTail(b []byte) []byte {
	if r.Status != StatusOK {
		return append(b, r.Msg...)
	}
	switch r.Op &^ RespBit {
	case OpQuery:
		return r.AppendDigests(append(b, r.State...))
	case OpAdmin:
		return append(b, r.Payload...)
	}
	return b
}

// AppendDigests appends what follows an OK query's state: Digest when it
// is set, then Base when that is set, or nothing. A server that encodes
// the state itself (PrependFrameHead) appends these after it.
func (r *Response) AppendDigests(b []byte) []byte {
	switch r.digestLen() {
	case DigestSize:
		return append(b, r.Digest[:]...)
	case 2 * DigestSize:
		return append(append(b, r.Digest[:]...), r.Base[:]...)
	}
	return b
}

// DecodeResponse parses a response frame body. Like DecodeRequest it
// errors, never panics, on malformed input. A query's State is a
// subslice of frame, not a copy (Reader.Span): the caller owns frame, as
// ReadFrame's result, and must not modify it while State is in use.
func DecodeResponse(frame []byte) (*Response, error) {
	if len(frame) > MaxFrame {
		return nil, ErrFrameTooLarge
	}
	r := NewReader(frame)
	if v := r.Byte(); r.Err() == nil && v != FrameVersion {
		return nil, fmt.Errorf("%w: %d", ErrVersion, v)
	}
	resp := &Response{Op: r.Byte(), ID: r.Uvarint(), Status: r.Byte()}
	if r.Err() == nil && resp.Op&RespBit == 0 {
		return nil, fmt.Errorf("wire: response op 0x%02x lacks response bit", resp.Op)
	}
	switch resp.Op &^ RespBit {
	case OpUpdate, OpQuery, OpAdmin:
	default:
		if r.Err() == nil {
			return nil, fmt.Errorf("wire: unknown response op 0x%02x", resp.Op)
		}
	}
	if resp.Status != StatusOK {
		resp.Msg = r.Str()
		if err := r.Err(); err != nil {
			return nil, err
		}
		return resp, nil
	}
	switch resp.Op &^ RespBit {
	case OpUpdate:
		resp.RoundTrips = r.Uvarint()
	case OpQuery:
		resp.RoundTrips = r.Uvarint()
		resp.Attempts = r.Uvarint()
		resp.Path = r.Byte()
		resp.State = r.Span() // the frame is the client's own: no second copy
		if optDigest(r, &resp.Digest) {
			optDigest(r, &resp.Base)
		}
	case OpAdmin:
		resp.Payload = r.Raw()
	}
	if err := r.Err(); err != nil {
		return nil, err
	}
	return resp, nil
}

// ReadFrame reads one length-prefixed frame, enforcing MaxFrame before
// allocating.
func ReadFrame(br *bufio.Reader) ([]byte, error) {
	n, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, err
	}
	if n > MaxFrame {
		return nil, ErrFrameTooLarge
	}
	frame := make([]byte, n)
	if _, err := io.ReadFull(br, frame); err != nil {
		return nil, err
	}
	return frame, nil
}
