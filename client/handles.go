package client

// Typed handles mirroring the facade's Counter/Set/Register API, plus raw
// queries and admin commands. Handles are cheap stateless views over the
// client's connection pool; create as many as convenient. Every method
// that performs I/O takes a context.Context first — the context's
// deadline (or the WithRequestTimeout fallback) bounds the operation,
// retries included.

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"strings"

	"crdtsmr/internal/core"
	"crdtsmr/internal/crdt"
	"crdtsmr/internal/wire"
)

// State is a CRDT payload: an element of a join semilattice, as returned
// by Query. It is the same type the root crdtsmr package exports, so
// states cross between the in-process facade and the network client
// without conversion.
type State = crdt.State

// LearnPath reports which protocol path served a linearizable read.
type LearnPath = core.LearnPath

const (
	// LearnConsistentQuorum: a quorum of ACKs carried equivalent states;
	// the read finished in one round trip.
	LearnConsistentQuorum = core.LearnConsistentQuorum
	// LearnVote: the proposer had to put the least upper bound to a vote
	// (two round trips).
	LearnVote = core.LearnVote
)

// QueryInfo describes how a linearizable read was served.
type QueryInfo struct {
	RoundTrips int
	Attempts   int
	Path       LearnPath
	// Unchanged reports that the server answered by digest alone: the
	// learned state is the one this client's earlier read of the key
	// returned, and Query returned that state again.
	Unchanged bool
	// Delta reports that the server answered with what the learned state
	// adds to the one this client's earlier read of the key returned, and
	// Query returned the join of the two: the learned state.
	Delta bool
}

func uvarintArg(n uint64) []byte {
	return binary.AppendUvarint(nil, n)
}

func (c *Client) update(ctx context.Context, key, crdtType, mutation string, args ...[]byte) error {
	if len(args) > wire.MaxArgs {
		// Enforced here so the failure is a local error, not a silent
		// server-side connection drop on the undecodable frame.
		return fmt.Errorf("client: %d update operands exceeds wire.MaxArgs (%d)", len(args), wire.MaxArgs)
	}
	req := &wire.Request{Op: wire.OpUpdate, Key: key, CRDTType: crdtType, Mutation: mutation, Args: args}
	_, err := c.do(ctx, req, false)
	return err
}

// errUnchangedUnheld fails a query answered "unchanged" by digest when
// the request did not carry that digest: the reply names no state this
// client holds, so it is a protocol error, never a nil or stale state.
var errUnchangedUnheld = errors.New("client: \"unchanged\" reply names a state the request did not hold")

// errDeltaUnheld fails a query answered by delta when the request did not
// take one, when the delta's base is not the state the request held, or
// when the reply names no learned state: such a delta cannot be joined
// into a state this client knows and kept.
var errDeltaUnheld = errors.New("client: delta reply is against a state the request did not hold")

// Query learns a linearizable state of the object stored under key. The
// payload type must be registered (all built-in types are). The state is
// decoded straight from the response frame, one copy off the socket. An
// OR-Set's strings share one buffer copied out of that frame, which stays
// alive while any of them does: strings.Clone the few you keep past the
// state.
//
// Every read runs the full linearizable protocol; only its answer may be
// shortened. The client keeps the last large state (≥ wire.LargeState
// bytes encoded) it read of a few keys, and sends its digest with the
// key's next query. When the learned state has that digest, the server
// answers "unchanged" and Query returns the held state again
// (QueryInfo.Unchanged). When the server still holds the state the
// digest names, it may instead answer with the learned state's delta
// against it, and Query returns the held state joined with the delta
// (QueryInfo.Delta). States are immutable, so sharing one between reads
// is safe.
func (c *Client) Query(ctx context.Context, key string) (State, QueryInfo, error) {
	req := &wire.Request{Op: wire.OpQuery, Key: key}
	held, holds := c.reads.get(key)
	if holds {
		req.Have, req.AcceptDelta = held.digest, true
	}
	resp, err := c.do(ctx, req, true)
	if err != nil {
		return nil, QueryInfo{}, err
	}
	info := QueryInfo{
		RoundTrips: int(resp.RoundTrips),
		Attempts:   int(resp.Attempts),
		Path:       LearnPath(resp.Path),
	}
	// An unchanged or delta answer is read against the state this request
	// named, not against whatever the cache holds by now.
	if resp.Unchanged() {
		if !holds || resp.Digest != held.digest {
			return nil, QueryInfo{}, errUnchangedUnheld
		}
		info.Unchanged = true
		return held.state, info, nil
	}
	st, err := crdt.Unmarshal(resp.State)
	if err != nil {
		return nil, QueryInfo{}, fmt.Errorf("client: decode state: %w", err)
	}
	digest := resp.Digest
	if resp.Delta() {
		if !req.AcceptDelta || resp.Base != held.digest || digest == ([wire.DigestSize]byte{}) {
			return nil, QueryInfo{}, errDeltaUnheld
		}
		if st, err = held.state.Merge(st); err != nil {
			return nil, QueryInfo{}, fmt.Errorf("client: join delta: %w", err)
		}
		info.Delta = true
	} else if len(resp.State) < wire.LargeState {
		digest = [wire.DigestSize]byte{}
	}
	c.reads.store(key, holds, st, digest)
	return st, info, nil
}

// Ping round-trips an admin frame to any reachable server.
func (c *Client) Ping(ctx context.Context) error {
	resp, err := c.do(ctx, &wire.Request{Op: wire.OpAdmin, Cmd: "ping"}, true)
	if err != nil {
		return err
	}
	if string(resp.Payload) != "pong" {
		return fmt.Errorf("client: unexpected ping reply %q", resp.Payload)
	}
	return nil
}

// Keys returns the object keys instantiated on the answering replica,
// sorted. Replicas may transiently disagree (keys instantiate lazily).
func (c *Client) Keys(ctx context.Context) ([]string, error) {
	resp, err := c.do(ctx, &wire.Request{Op: wire.OpAdmin, Cmd: "keys"}, true)
	if err != nil {
		return nil, err
	}
	r := wire.NewReader(resp.Payload)
	n := r.Uvarint()
	// Cap the preallocation by the payload size (every key costs at least
	// one byte), so a corrupt count cannot panic or balloon the client.
	capHint := n
	if max := uint64(len(resp.Payload)); capHint > max {
		capHint = max
	}
	keys := make([]string, 0, capHint)
	for i := uint64(0); i < n && r.Err() == nil; i++ {
		keys = append(keys, r.Str())
	}
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("client: decode keys: %w", err)
	}
	return keys, nil
}

// Member is one replica of the cluster's current configuration, as
// reported by the members admin command. Addr is the member's
// client-facing address, or "" when the answering server's registry has
// none for it.
type Member struct {
	ID   string
	Addr string
}

// decodeMembers parses a membership admin payload: epoch, then each
// member's ID and client address.
func decodeMembers(payload []byte) (uint64, []Member, error) {
	r := wire.NewReader(payload)
	epoch := r.Uvarint()
	n := r.Uvarint()
	capHint := n
	if max := uint64(len(payload)); capHint > max {
		capHint = max
	}
	members := make([]Member, 0, capHint)
	for i := uint64(0); i < n && r.Err() == nil; i++ {
		members = append(members, Member{ID: r.Str(), Addr: r.Str()})
	}
	if err := r.Err(); err != nil {
		return 0, nil, fmt.Errorf("client: decode members: %w", err)
	}
	return epoch, members, nil
}

// Members returns the configuration epoch and member list of the
// answering replica's cluster.
func (c *Client) Members(ctx context.Context) (uint64, []Member, error) {
	resp, err := c.do(ctx, &wire.Request{Op: wire.OpAdmin, Cmd: "members"}, true)
	if err != nil {
		return 0, nil, err
	}
	return decodeMembers(resp.Payload)
}

// RefreshMembers asks the cluster for its current member list and
// reconciles the client's endpoint set against the advertised client
// addresses (SetAddrs): pools for removed members close, new members'
// pools dial lazily. Members without an advertised address are skipped;
// if no member advertises one, the endpoint set is left unchanged and an
// error is returned. Call it after a reconfiguration — or periodically —
// so a long-lived client never dials retired replicas forever.
func (c *Client) RefreshMembers(ctx context.Context) ([]Member, error) {
	_, members, err := c.Members(ctx)
	if err != nil {
		return nil, err
	}
	var addrs []string
	for _, m := range members {
		if m.Addr != "" {
			addrs = append(addrs, m.Addr)
		}
	}
	if len(addrs) == 0 {
		return members, fmt.Errorf("client: no member advertises a client address; endpoint set unchanged")
	}
	if err := c.SetAddrs(addrs); err != nil {
		return members, err
	}
	return members, nil
}

// MemberAdd proposes adding replica id to the cluster's member set, via
// whichever current member answers. meshAddr, when non-empty, is the
// joiner's replica-mesh address, registered with the answering server's
// transport before the reconfiguration (required when the transport did
// not know the joiner at boot); clientAddr, when non-empty, is recorded
// in the server's member registry so later RefreshMembers calls learn
// it. Returns the committed epoch and member list.
//
// The reconfiguration is an update, not a read: if the call fails with
// ErrUncertain the new configuration may or may not have committed —
// inspect Members before retrying.
func (c *Client) MemberAdd(ctx context.Context, id, meshAddr, clientAddr string) (uint64, []Member, error) {
	if id == "" || len(strings.Fields(id)) != 1 {
		return 0, nil, fmt.Errorf("client: bad member ID %q", id)
	}
	cmd := "member-add " + id
	if clientAddr != "" && meshAddr == "" {
		meshAddr = "-" // positional placeholder: "no mesh address"
	}
	if meshAddr != "" {
		cmd += " " + meshAddr
	}
	if clientAddr != "" {
		cmd += " " + clientAddr
	}
	resp, err := c.do(ctx, &wire.Request{Op: wire.OpAdmin, Cmd: cmd}, false)
	if err != nil {
		return 0, nil, err
	}
	return decodeMembers(resp.Payload)
}

// MemberRemove proposes removing replica id from the cluster's member
// set. Like MemberAdd it is an update; an ErrUncertain failure leaves
// the outcome unknown. The removed replica keeps running — it just
// serves no quorums and refuses commands — until the operator stops it.
func (c *Client) MemberRemove(ctx context.Context, id string) (uint64, []Member, error) {
	if id == "" || len(strings.Fields(id)) != 1 {
		return 0, nil, fmt.Errorf("client: bad member ID %q", id)
	}
	resp, err := c.do(ctx, &wire.Request{Op: wire.OpAdmin, Cmd: "member-remove " + id}, false)
	if err != nil {
		return 0, nil, err
	}
	return decodeMembers(resp.Payload)
}

// Counter returns a typed handle on the G-Counter stored under key.
func (c *Client) Counter(key string) *Counter { return &Counter{c: c, key: key} }

// Counter is a client-side handle on a replicated G-Counter.
type Counter struct {
	c   *Client
	key string
}

// Inc increments the counter by n (linearizable, one protocol round trip).
func (h *Counter) Inc(ctx context.Context, n uint64) error {
	return h.c.update(ctx, h.key, crdt.TypeGCounter, wire.MutInc, uvarintArg(n))
}

// Value reads the counter, linearizably.
func (h *Counter) Value(ctx context.Context) (uint64, error) {
	st, _, err := h.c.Query(ctx, h.key)
	if err != nil {
		return 0, err
	}
	g, ok := st.(*crdt.GCounter)
	if !ok {
		return 0, fmt.Errorf("%w: payload of %q is %s, not a G-Counter", ErrTypeMismatch, h.key, st.TypeName())
	}
	return g.Value(), nil
}

// PNCounter returns a typed handle on the PN-Counter stored under key.
func (c *Client) PNCounter(key string) *PNCounter { return &PNCounter{c: c, key: key} }

// PNCounter is a client-side handle on a replicated PN-Counter.
type PNCounter struct {
	c   *Client
	key string
}

// Inc increments the counter by n.
func (h *PNCounter) Inc(ctx context.Context, n uint64) error {
	return h.c.update(ctx, h.key, crdt.TypePNCounter, wire.MutInc, uvarintArg(n))
}

// Dec decrements the counter by n.
func (h *PNCounter) Dec(ctx context.Context, n uint64) error {
	return h.c.update(ctx, h.key, crdt.TypePNCounter, wire.MutDec, uvarintArg(n))
}

// Value reads the counter, linearizably.
func (h *PNCounter) Value(ctx context.Context) (int64, error) {
	st, _, err := h.c.Query(ctx, h.key)
	if err != nil {
		return 0, err
	}
	p, ok := st.(*crdt.PNCounter)
	if !ok {
		return 0, fmt.Errorf("%w: payload of %q is %s, not a PN-Counter", ErrTypeMismatch, h.key, st.TypeName())
	}
	return p.Value(), nil
}

// Set returns a typed handle on the observed-remove set stored under key.
func (c *Client) Set(key string) *Set { return &Set{c: c, key: key} }

// Set is a client-side handle on a replicated OR-Set. The serving replica
// tags additions, so one handle is safe for concurrent use.
type Set struct {
	c   *Client
	key string
}

// Add inserts an element (add-wins on concurrent removal).
func (h *Set) Add(ctx context.Context, element string) error {
	return h.c.update(ctx, h.key, crdt.TypeORSet, wire.MutAdd, []byte(element))
}

// Remove deletes the element's observed additions.
func (h *Set) Remove(ctx context.Context, element string) error {
	return h.c.update(ctx, h.key, crdt.TypeORSet, wire.MutRemove, []byte(element))
}

// Elements reads the membership, linearizably. The elements share one
// buffer, as Query's strings do: strings.Clone the few you keep.
func (h *Set) Elements(ctx context.Context) ([]string, error) {
	st, _, err := h.c.Query(ctx, h.key)
	if err != nil {
		return nil, err
	}
	set, ok := st.(*crdt.ORSet)
	if !ok {
		return nil, fmt.Errorf("%w: payload of %q is %s, not an OR-Set", ErrTypeMismatch, h.key, st.TypeName())
	}
	return set.Elements(), nil
}

// Register returns a typed handle on the last-writer-wins register stored
// under key.
func (c *Client) Register(key string) *Register { return &Register{c: c, key: key} }

// Register is a client-side handle on a replicated LWW-Register.
type Register struct {
	c   *Client
	key string
}

// Store writes the register. Concurrent writes resolve last-writer-wins
// by the serving replicas' wall clocks, replica ID as tie-breaker.
func (h *Register) Store(ctx context.Context, value string) error {
	return h.c.update(ctx, h.key, crdt.TypeLWWRegister, wire.MutSet, []byte(value))
}

// Load reads the register, linearizably. ok is false if the register was
// never written.
func (h *Register) Load(ctx context.Context) (value string, ok bool, err error) {
	st, _, err := h.c.Query(ctx, h.key)
	if err != nil {
		return "", false, err
	}
	reg, isReg := st.(*crdt.LWWRegister)
	if !isReg {
		return "", false, fmt.Errorf("%w: payload of %q is %s, not an LWW-Register", ErrTypeMismatch, h.key, st.TypeName())
	}
	val, ts, _ := reg.Value()
	return val, ts != 0, nil
}
