package core

import (
	"fmt"

	"crdtsmr/internal/crdt"
	"crdtsmr/internal/transport"
	"crdtsmr/internal/wire"
)

// msgType tags the protocol messages of Algorithm 2.
type msgType uint8

const (
	// msgMerge carries an updated payload state to remote acceptors
	// (update path, line 4). A large state's payload may be replaced by a
	// digest the receiver recognizes, or by a delta against a baseline it
	// recognizes (docs/PROTOCOL.md §3).
	msgMerge msgType = iota + 1
	// msgMerged acknowledges a MERGE (line 35).
	msgMerged
	// msgPrepare announces a proposer's intent to learn a state (line 10).
	// When the proposer's payload is large it also carries that payload's
	// digest, enabling digest-only replies.
	msgPrepare
	// msgAck answers a successful PREPARE with the acceptor's round and
	// payload state (line 42) — or, when the acceptor's state matches the
	// digest the PREPARE announced, with the digest alone.
	msgAck
	// msgVote proposes a state to learn under a round (line 17).
	msgVote
	// msgVoted accepts a VOTE (line 47). Per the §3.6 optimization it
	// carries no payload: the proposer remembers what it proposed.
	msgVoted
	// msgNack denies a PREPARE or VOTE, carrying the acceptor's current
	// round and payload state so the proposer can retry informedly
	// (§3.2 "Retrying Requests"). Prepare-phase NACKs may be digest-only
	// under the same rule as ACKs.
	msgNack
	// msgMergeNack answers a digest-only or delta MERGE whose digest or
	// baseline the receiver does not recognize: the sender must fall back
	// to the full payload (docs/PROTOCOL.md §3.3).
	msgMergeNack
	// msgReconfig carries a configuration — NewEpoch, Source, Members —
	// plus the sender's full payload state. It is both the proposal of a
	// reconfiguration round (JOIN/LEAVE in one frame: the receiver adopts
	// the config if it supersedes its own) and the config-push that brings
	// a lagging or joining replica current in one message: config plus
	// payload is the complete bootstrap of a log-free replica
	// (docs/PROTOCOL.md §6).
	msgReconfig
	// msgReconfigAck accepts a RECONFIG: the sender has adopted the config
	// whose epoch the ack's Epoch field names. The proposer commits once
	// acks form a joint quorum (majority of old ∧ majority of new).
	msgReconfigAck
	// msgEpochNack answers any message whose epoch does not match the
	// receiver's, carrying the receiver's config (epoch, source, members)
	// and no payload. A receiver that learns of a greater config from the
	// nack adopts it; one that holds a greater config answers with a
	// RECONFIG push. Either way the two sides converge without any
	// retransmission schedule of their own.
	msgEpochNack
)

// msgFlagLease is OR'd into the wire type byte (docs/PROTOCOL.md §5.1).
// On VOTE it marks a leased proposal that skipped the prepare phase; on
// MERGE it marks a lease-holder update whose round the acceptor may
// preserve instead of clobbering. Replies never carry it. Binaries that
// predate leases are unsupported: they reject the high bit as an invalid
// type, so a query or update that needs one of them for its quorum never
// completes.
const msgFlagLease = 0x80

func (t msgType) String() string {
	switch t {
	case msgMerge:
		return "MERGE"
	case msgMerged:
		return "MERGED"
	case msgPrepare:
		return "PREPARE"
	case msgAck:
		return "ACK"
	case msgVote:
		return "VOTE"
	case msgVoted:
		return "VOTED"
	case msgNack:
		return "NACK"
	case msgMergeNack:
		return "MERGE-NACK"
	case msgReconfig:
		return "RECONFIG"
	case msgReconfigAck:
		return "RECONFIG-ACK"
	case msgEpochNack:
		return "EPOCH-NACK"
	default:
		return fmt.Sprintf("msgType(%d)", uint8(t))
	}
}

// message is the single wire format for all protocol messages. Req and
// Attempt correlate replies with the proposer's in-flight request and its
// current retry attempt, implementing the request-tracking convention of
// §3.2; replies for stale attempts are discarded.
//
// The trailing state frame describes the payload transfer: by value
// (State), by digest (Digest), or by delta (State as the delta plus
// Baseline/Digest naming the states it connects). A zero Kind with a
// non-nil State encodes as wire.StateFull.
type message struct {
	Type    msgType
	Req     uint64
	Attempt uint32

	// Epoch is the sender's configuration epoch (docs/PROTOCOL.md §6).
	// Every message carries it; a receiver whose epoch differs answers
	// with EPOCH-NACK instead of processing the message, so traffic from
	// a stale configuration can never count toward a current quorum.
	Epoch uint64

	Round Round

	// Config fields, present on RECONFIG and EPOCH-NACK frames only: the
	// epoch being proposed or held, the proposer that minted it, and its
	// member set.
	NewEpoch uint64
	Source   transport.NodeID
	Members  []transport.NodeID

	// Lease carries the msgFlagLease bit: a leased VOTE, or a
	// preserve-this-round marker on a lease-holder MERGE.
	Lease bool

	Kind     wire.StateKind
	State    crdt.State  // full payload, or the delta for wire.StateDelta
	Digest   crdt.Digest // sender state digest (digest/full+digest), or delta result
	Baseline crdt.Digest // delta baseline digest

	// StateRaw is State marshaled: kept by the decoder exactly as
	// received (a view of the inbound frame, which nobody writes), set by
	// a sender that already encoded State so that encode does not marshal
	// it again, and set by encode when it marshals State.
	StateRaw []byte

	// wire is the message as encoded by its first send, reused by every
	// later send of the same message within one protocol step.
	wire []byte
}

// hasConfig reports whether the message type carries a config frame.
func hasConfig(t msgType) bool { return t == msgReconfig || t == msgEpochNack }

// encode serializes the message. Layout:
//
//	type(1) | req uvarint | attempt uvarint | epoch uvarint | round |
//	[configFrame] | stateFrame
//
// where the configFrame (internal/wire/config.go) is present only on
// RECONFIG and EPOCH-NACK frames, and stateFrame is the versioned
// state frame of internal/wire/state.go.
func (m *message) encode() ([]byte, error) {
	kind := m.Kind
	if kind == wire.StateNone && m.State != nil {
		kind = wire.StateFull
	}
	frame := wire.StateFrame{Kind: kind, Digest: m.Digest, Baseline: m.Baseline}
	if kind.HasPayload() {
		if m.State == nil {
			return nil, fmt.Errorf("core: encode %s: %v frame without a state", m.Type, kind)
		}
		raw := m.StateRaw
		if raw == nil {
			var err error
			if raw, err = crdt.Marshal(m.State); err != nil {
				return nil, fmt.Errorf("core: encode %s: %w", m.Type, err)
			}
			m.StateRaw = raw
		}
		frame.State = raw
	}

	// Marshaling the state first lets the header+frame land in one
	// precisely sized buffer: 128 bytes generously covers the fixed header
	// (type, varints, round, frame digests) for any realistic round/ID.
	w := wire.MakeWriter(make([]byte, 0, 128+len(frame.State)))
	b := byte(m.Type)
	if m.Lease {
		b |= msgFlagLease
	}
	w.Byte(b)
	w.Uvarint(m.Req)
	w.Uvarint(uint64(m.Attempt))
	w.Uvarint(m.Epoch)
	m.Round.encode(&w)
	if hasConfig(m.Type) {
		cf := wire.ConfigFrame{Epoch: m.NewEpoch, Source: string(m.Source), Members: make([]string, len(m.Members))}
		for i, id := range m.Members {
			cf.Members[i] = string(id)
		}
		cf.Append(&w)
	}
	frame.Append(&w)
	return w.Bytes(), nil
}

// decodeMessage parses a message produced by encode.
func decodeMessage(p []byte) (*message, error) {
	r := wire.NewReader(p)
	raw := r.Byte()
	m := &message{
		Type:    msgType(raw &^ msgFlagLease),
		Lease:   raw&msgFlagLease != 0,
		Req:     r.Uvarint(),
		Attempt: uint32(r.Uvarint()),
		Epoch:   r.Uvarint(),
		Round:   decodeRound(r),
	}
	if hasConfig(m.Type) {
		cf := wire.ReadConfigFrame(r)
		m.NewEpoch = cf.Epoch
		m.Source = transport.NodeID(cf.Source)
		m.Members = make([]transport.NodeID, len(cf.Members))
		for i, id := range cf.Members {
			m.Members[i] = transport.NodeID(id)
		}
	}
	frame := wire.ReadStateFrame(r)
	if err := r.Done(); err != nil {
		return nil, fmt.Errorf("core: decode %s: %w", m.Type, err)
	}
	m.Kind = frame.Kind
	m.Digest = crdt.Digest(frame.Digest)
	m.Baseline = crdt.Digest(frame.Baseline)
	if frame.Kind.HasPayload() {
		s, err := crdt.Unmarshal(frame.State)
		if err != nil {
			return nil, fmt.Errorf("core: decode %s state: %w", m.Type, err)
		}
		m.State = s
		m.StateRaw = frame.State
	}
	if m.Type < msgMerge || m.Type > msgEpochNack {
		return nil, fmt.Errorf("core: unknown message type %d", m.Type)
	}
	return m, nil
}
