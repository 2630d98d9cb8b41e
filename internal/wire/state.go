package wire

import "fmt"

// State frames let a replica protocol message describe its payload state
// by value, by digest, or by delta (docs/PROTOCOL.md §3). Every protocol
// message ends with one state frame:
//
//	stateFrame := kind:u8 body
//
// where body depends on the kind: 0 is none, 1 is full, and kinds 2-4
// name the state by digest or delta. An unknown kind is a decode error —
// the receiver drops the message, which the protocols tolerate as loss —
// so new kinds can only be introduced together with a cluster-wide
// rollout (the version-bump rules of PROTOCOL.md §3.4).

// DigestSize is the byte length of a state digest on the wire (SHA-256).
const DigestSize = 32

// StateKind tags how a state frame carries its payload.
type StateKind uint8

const (
	// StateNone: no payload and no digest.
	StateNone StateKind = 0
	// StateFull: the complete marshaled payload.
	StateFull StateKind = 1
	// StateDigest: only the digest of the sender's state; the receiver is
	// expected to recognize it.
	StateDigest StateKind = 2
	// StateDelta: a delta payload plus the digest of the baseline it was
	// computed against and the digest of the resulting full state.
	StateDelta StateKind = 3
	// StateFullDigest: the complete payload plus the sender's state
	// digest (a seeded PREPARE announcing its digest, or a large state's
	// full MERGE).
	StateFullDigest StateKind = 4
)

func (k StateKind) String() string {
	switch k {
	case StateNone:
		return "none"
	case StateFull:
		return "full"
	case StateDigest:
		return "digest"
	case StateDelta:
		return "delta"
	case StateFullDigest:
		return "full+digest"
	default:
		return fmt.Sprintf("StateKind(%d)", uint8(k))
	}
}

// HasPayload reports whether the kind carries a marshaled state.
func (k StateKind) HasPayload() bool {
	return k == StateFull || k == StateDelta || k == StateFullDigest
}

// HasDigest reports whether the kind carries the sender's state digest.
func (k StateKind) HasDigest() bool {
	return k == StateDigest || k == StateDelta || k == StateFullDigest
}

// StateFrame is one decoded state frame.
type StateFrame struct {
	Kind StateKind
	// State is the marshaled payload: the full state for StateFull and
	// StateFullDigest, the delta for StateDelta, nil otherwise.
	State []byte
	// Digest is the digest of the sender's full state (StateDigest,
	// StateFullDigest) or of the state resulting from applying the delta
	// (StateDelta).
	Digest [DigestSize]byte
	// Baseline is the digest of the state the delta was computed against
	// (StateDelta only).
	Baseline [DigestSize]byte
}

// Append encodes the frame onto w. Layout per kind:
//
//	none        : 00
//	full        : 01 state:raw
//	digest      : 02 digest:32
//	delta       : 03 baseline:32 digest:32 state:raw
//	full+digest : 04 state:raw digest:32
func (f StateFrame) Append(w *Writer) {
	w.Byte(byte(f.Kind))
	switch f.Kind {
	case StateFull:
		w.Raw(f.State)
	case StateDigest:
		w.Fixed(f.Digest[:])
	case StateDelta:
		w.Fixed(f.Baseline[:])
		w.Fixed(f.Digest[:])
		w.Raw(f.State)
	case StateFullDigest:
		w.Raw(f.State)
		w.Fixed(f.Digest[:])
	}
}

// ReadStateFrame decodes one state frame from r. Errors (truncation,
// unknown kind) surface through r.Err.
func ReadStateFrame(r *Reader) StateFrame {
	f := StateFrame{Kind: StateKind(r.Byte())}
	switch f.Kind {
	case StateNone:
	case StateFull:
		f.State = r.Raw()
	case StateDigest:
		r.Fixed(f.Digest[:])
	case StateDelta:
		r.Fixed(f.Baseline[:])
		r.Fixed(f.Digest[:])
		f.State = r.Raw()
	case StateFullDigest:
		f.State = r.Raw()
		r.Fixed(f.Digest[:])
	default:
		r.failf("wire: unknown state frame kind %d", uint8(f.Kind))
	}
	return f
}
