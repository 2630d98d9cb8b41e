package raft

import (
	"fmt"

	"crdtsmr/internal/wire"
)

type msgType uint8

const (
	mRequestVote msgType = iota + 1
	mVote
	mAppend
	mAppendResp
	mSnapshot
	mSnapshotResp
	mForward
	mForwardResp
)

// Entry is one replicated log entry.
type Entry struct {
	Term uint64
	Cmd  []byte
}

// message is the single wire format for all Raft messages; unused fields
// are zero.
type message struct {
	Type      msgType
	Term      uint64
	LastIndex uint64 // RequestVote: candidate's last log index; Snapshot: included index
	LastTerm  uint64 // RequestVote: candidate's last log term; Snapshot: included term
	Granted   bool   // Vote
	PrevIndex uint64 // Append
	PrevTerm  uint64 // Append
	Commit    uint64 // Append: leader commit index
	Entries   []Entry
	Success   bool   // AppendResp
	Match     uint64 // AppendResp / SnapshotResp
	Data      []byte // Snapshot payload; ForwardResp result
	ReqID     uint64 // Forward / ForwardResp correlation
	Cmd       []byte // Forward command
	Err       string // ForwardResp error
}

func (m *message) encode() []byte {
	w := wire.NewWriter(64 + 16*len(m.Entries))
	w.Byte(byte(m.Type))
	w.Uvarint(m.Term)
	w.Uvarint(m.LastIndex)
	w.Uvarint(m.LastTerm)
	w.Bool(m.Granted)
	w.Uvarint(m.PrevIndex)
	w.Uvarint(m.PrevTerm)
	w.Uvarint(m.Commit)
	w.Uvarint(uint64(len(m.Entries)))
	for _, e := range m.Entries {
		w.Uvarint(e.Term)
		w.Raw(e.Cmd)
	}
	w.Bool(m.Success)
	w.Uvarint(m.Match)
	w.Raw(m.Data)
	w.Uvarint(m.ReqID)
	w.Raw(m.Cmd)
	w.Str(m.Err)
	return w.Bytes()
}

func decodeMessage(p []byte) (*message, error) {
	r := wire.NewReader(p)
	m := &message{
		Type:      msgType(r.Byte()),
		Term:      r.Uvarint(),
		LastIndex: r.Uvarint(),
		LastTerm:  r.Uvarint(),
		Granted:   r.Bool(),
		PrevIndex: r.Uvarint(),
		PrevTerm:  r.Uvarint(),
		Commit:    r.Uvarint(),
	}
	n := r.Uvarint()
	if n > 1<<20 {
		return nil, fmt.Errorf("raft: absurd entry count %d", n)
	}
	m.Entries = make([]Entry, 0, n)
	for i := uint64(0); i < n; i++ {
		m.Entries = append(m.Entries, Entry{Term: r.Uvarint(), Cmd: r.Raw()})
	}
	m.Success = r.Bool()
	m.Match = r.Uvarint()
	m.Data = r.Raw()
	m.ReqID = r.Uvarint()
	m.Cmd = r.Raw()
	m.Err = r.Str()
	if err := r.Done(); err != nil {
		return nil, fmt.Errorf("raft: decode: %w", err)
	}
	if m.Type < mRequestVote || m.Type > mForwardResp {
		return nil, fmt.Errorf("raft: unknown message type %d", m.Type)
	}
	return m, nil
}
