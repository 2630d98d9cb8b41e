package paxos

import (
	"fmt"

	"crdtsmr/internal/rsm"
	"crdtsmr/internal/transport"
	"crdtsmr/internal/wire"
)

// Ballot orders leadership attempts: (number, proposer ID), totally ordered.
type Ballot struct {
	N  uint64
	ID transport.NodeID
}

// Less is the total order on ballots.
func (b Ballot) Less(o Ballot) bool {
	if b.N != o.N {
		return b.N < o.N
	}
	return b.ID < o.ID
}

func (b Ballot) String() string { return fmt.Sprintf("(%d,%s)", b.N, b.ID) }

type msgType uint8

const (
	mPrepare      msgType = iota + 1 // phase 1a: new leader candidate
	mPromise                         // phase 1b: acceptor promise + accepted suffix
	mReject                          // phase 1b/2b negative: higher ballot seen
	mAccept                          // phase 2a: leader proposes cmd for slot
	mAccepted                        // phase 2b: acceptor accepted
	mCommit                          // learner notification: slots ≤ UpTo are chosen
	mHeartbeat                       // leader liveness + commit/truncate piggyback
	mHeartbeatAck                    // follower ack: renews the leader's read lease
	mCatchup                         // follower asks for missing slots
	mSnapshot                        // state transfer for far-behind followers
	mForward                         // client command forwarded to the leader
	mForwardResp                     // forwarded command's result
)

// slotCmd is an accepted (slot, ballot, command) triple carried in promises
// and catch-up replies.
type slotCmd struct {
	Slot   uint64
	Ballot Ballot
	Cmd    []byte
}

type message struct {
	Type     msgType
	Ballot   Ballot
	Slot     uint64
	Cmd      []byte
	UpTo     uint64    // Commit/Heartbeat: committed watermark
	Truncate uint64    // Heartbeat: slots below this are applied everywhere
	Applied  uint64    // HeartbeatAck/Promise: sender's applied watermark
	Accepted []slotCmd // Promise/Catchup replies
	From     uint64    // Prepare/Catchup: first slot of interest
	Data     []byte    // Snapshot payload; ForwardResp result
	ReqID    uint64    // Forward correlation
	Err      string    // ForwardResp error
	Read     bool      // Forward: command is a read; serve from the lease
	Sent     int64     // Heartbeat: leader send time (unix nanos), echoed in the ack
}

// forwarding builds the shared command layer's forward messages.
type forwarding struct{}

func (forwarding) Forward(reqID uint64, cmd []byte, read bool) rsm.Message {
	return &message{Type: mForward, ReqID: reqID, Cmd: cmd, Read: read}
}

func (forwarding) Reply(reqID uint64, result []byte, err string) rsm.Message {
	return &message{Type: mForwardResp, ReqID: reqID, Data: result, Err: err}
}

func encodeBallot(w *wire.Writer, b Ballot) {
	w.Uvarint(b.N)
	w.Str(string(b.ID))
}

func decodeBallot(r *wire.Reader) Ballot {
	return Ballot{N: r.Uvarint(), ID: transport.NodeID(r.Str())}
}

func (m *message) Encode() []byte {
	w := wire.NewWriter(64 + 24*len(m.Accepted))
	w.Byte(byte(m.Type))
	encodeBallot(w, m.Ballot)
	w.Uvarint(m.Slot)
	w.Raw(m.Cmd)
	w.Uvarint(m.UpTo)
	w.Uvarint(m.Truncate)
	w.Uvarint(m.Applied)
	w.Uvarint(uint64(len(m.Accepted)))
	for _, a := range m.Accepted {
		w.Uvarint(a.Slot)
		encodeBallot(w, a.Ballot)
		w.Raw(a.Cmd)
	}
	w.Uvarint(m.From)
	w.Raw(m.Data)
	w.Uvarint(m.ReqID)
	w.Str(m.Err)
	w.Bool(m.Read)
	w.Varint(m.Sent)
	return w.Bytes()
}

func decodeMessage(p []byte) (*message, error) {
	r := wire.NewReader(p)
	m := &message{
		Type:   msgType(r.Byte()),
		Ballot: decodeBallot(r),
		Slot:   r.Uvarint(),
		Cmd:    r.Raw(),
		UpTo:   r.Uvarint(),
	}
	m.Truncate = r.Uvarint()
	m.Applied = r.Uvarint()
	n := r.Uvarint()
	if n > 1<<20 {
		return nil, fmt.Errorf("paxos: absurd accepted count %d", n)
	}
	m.Accepted = make([]slotCmd, 0, n)
	for i := uint64(0); i < n; i++ {
		m.Accepted = append(m.Accepted, slotCmd{Slot: r.Uvarint(), Ballot: decodeBallot(r), Cmd: r.Raw()})
	}
	m.From = r.Uvarint()
	m.Data = r.Raw()
	m.ReqID = r.Uvarint()
	m.Err = r.Str()
	m.Read = r.Bool()
	m.Sent = r.Varint()
	if err := r.Done(); err != nil {
		return nil, fmt.Errorf("paxos: decode: %w", err)
	}
	if m.Type < mPrepare || m.Type > mForwardResp {
		return nil, fmt.Errorf("paxos: unknown message type %d", m.Type)
	}
	return m, nil
}
