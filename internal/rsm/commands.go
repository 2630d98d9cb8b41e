package rsm

import (
	"fmt"
	"maps"
	"slices"

	"crdtsmr/internal/transport"
)

// Message is a protocol message the command layer can put on the wire.
type Message interface{ Encode() []byte }

// Forwarding builds a protocol's own messages for a command forwarded to
// the leader and for the leader's reply: its result or its error's text.
type Forwarding interface {
	Forward(reqID uint64, cmd []byte, read bool) Message
	Reply(reqID uint64, result []byte, err string) Message
}

// forwardDedupWindow is how far behind an origin's highest-seen request ID
// a remembered ID is kept: IDs increase per origin, so anything this far
// back can no longer be a late first delivery.
const forwardDedupWindow = 1 << 12

// Commands is the client-command layer Multi-Paxos and Raft share; each
// embeds one and keeps only its agreement logic. It owns the replica's ID,
// peer list and quorum, the outbox, and command forwarding: on the origin
// side the forward IDs and their pending callbacks, on the leader side
// duplicate suppression per origin.
type Commands struct {
	id       transport.NodeID
	peers    []transport.NodeID // every member but id
	quorum   int                // a majority of the members
	noLeader Transient
	fwd      Forwarding
	outbox   []Envelope

	forwards      map[uint64]Done // origin side, by forward request ID
	nextForwardID uint64

	// Leader side: request IDs already seen per origin. The network may
	// duplicate a forwarded command; without this a leader would append —
	// and commit — the same non-idempotent command twice.
	seen map[transport.NodeID]*seenIDs
}

type seenIDs struct {
	ids map[uint64]struct{}
	max uint64
}

// NewCommands builds the command layer of replica id. members must include
// id; noLeader is the protocol's error for a command no leader can take.
func NewCommands(id transport.NodeID, members []transport.NodeID, noLeader Transient, fwd Forwarding) (Commands, error) {
	peers := slices.DeleteFunc(slices.Clone(members), func(m transport.NodeID) bool { return m == id })
	if len(peers) == len(members) {
		return Commands{}, fmt.Errorf("%s not in member list %v", id, members)
	}
	return Commands{
		id:       id,
		peers:    peers,
		quorum:   len(members)/2 + 1,
		noLeader: noLeader,
		fwd:      fwd,
		forwards: make(map[uint64]Done),
		seen:     make(map[transport.NodeID]*seenIDs),
	}, nil
}

// ID returns the replica ID.
func (c *Commands) ID() transport.NodeID { return c.id }

// Peers returns every member but this replica.
func (c *Commands) Peers() []transport.NodeID { return c.peers }

// Quorum returns the size of a majority of the members.
func (c *Commands) Quorum() int { return c.quorum }

// Send queues m for to.
func (c *Commands) Send(to transport.NodeID, m Message) {
	c.outbox = append(c.outbox, Envelope{To: to, Payload: m.Encode()})
}

// Broadcast queues m, encoded once, for every peer.
func (c *Commands) Broadcast(m Message) {
	p := m.Encode()
	for _, to := range c.peers {
		c.outbox = append(c.outbox, Envelope{To: to, Payload: p})
	}
}

// TakeOutbox returns and clears pending outbound messages.
func (c *Commands) TakeOutbox() []Envelope {
	out := c.outbox
	c.outbox = nil
	return out
}

// Forward sends cmd to leader under a fresh forward ID; done fires when
// the reply arrives (Resolve) or the forward is failed (FailForwards).
func (c *Commands) Forward(leader transport.NodeID, cmd []byte, read bool, done Done) {
	c.nextForwardID++
	c.forwards[c.nextForwardID] = done
	c.Send(leader, c.fwd.Forward(c.nextForwardID, cmd, read))
}

// Resolve completes the forward reqID with a leader's reply; a reply to a
// forward no longer pending is ignored. Every error a leader reports for
// a forwarded command is one of its protocol's Transient values, so the
// text comes back as that value.
func (c *Commands) Resolve(reqID uint64, result []byte, errText string) {
	done, ok := c.forwards[reqID]
	if !ok {
		return
	}
	delete(c.forwards, reqID)
	if errText != "" {
		done(nil, Transient(errText))
		return
	}
	done(result, nil)
}

// FailForwards fails every forward still waiting for a leader's reply
// with the protocol's no-leader error, in forward-ID order.
func (c *Commands) FailForwards() {
	FailAll(c.forwards, func(done Done) { done(nil, c.noLeader) })
}

// Accept admits the command origin forwarded as reqID and returns the
// callback that replies to origin, or false if the command is a duplicate.
// Duplicates are dropped silently: the first delivery's reply answers the
// origin, and the origin ignores unknown request IDs.
func (c *Commands) Accept(origin transport.NodeID, reqID uint64) (Done, bool) {
	s := c.seen[origin]
	if s == nil {
		s = &seenIDs{ids: make(map[uint64]struct{})}
		c.seen[origin] = s
	}
	if _, ok := s.ids[reqID]; ok {
		return nil, false
	}
	s.ids[reqID] = struct{}{}
	s.max = max(s.max, reqID)
	if len(s.ids) > 2*forwardDedupWindow {
		for id := range s.ids {
			if id+forwardDedupWindow < s.max {
				delete(s.ids, id)
			}
		}
	}
	return func(result []byte, err error) {
		var text string
		if err != nil {
			text = err.Error()
		}
		c.Send(origin, c.fwd.Reply(reqID, result, text))
	}, true
}

// FailAll removes every entry of pending and hands each to fail, in key
// order. The callbacks send messages and arm timers, so their order is
// part of a seeded run's schedule.
func FailAll[V any](pending map[uint64]V, fail func(V)) {
	for _, k := range slices.Sorted(maps.Keys(pending)) {
		v := pending[k]
		delete(pending, k)
		fail(v)
	}
}
