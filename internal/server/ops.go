package server

// The mutation table: named, typed update operations the client protocol
// can request. The replication protocol applies update functions locally
// at the serving replica (§3.2 — update functions never cross the replica
// wire), so the client wire format names a mutation and the server builds
// the corresponding closure here. The table mirrors the typed handles of
// the public facade: counters, observed-remove sets, and last-writer-wins
// registers, plus the PN-Counter.

import (
	"context"
	"encoding/binary"
	"fmt"
	"time"

	"crdtsmr/internal/crdt"
	"crdtsmr/internal/wire"
)

// errBadRequest marks request-shape errors (unknown mutation, wrong
// operand count) so the dispatcher can answer StatusBadRequest instead of
// StatusError.
type errBadRequest struct{ msg string }

func (e errBadRequest) Error() string { return e.msg }

func badRequestf(format string, args ...any) error {
	return errBadRequest{msg: fmt.Sprintf(format, args...)}
}

func argUint(req *wire.Request, i int) (uint64, error) {
	if i >= len(req.Args) {
		return 0, badRequestf("server: %s/%s needs %d operands, got %d", req.CRDTType, req.Mutation, i+1, len(req.Args))
	}
	v, n := binary.Uvarint(req.Args[i])
	if n <= 0 {
		return 0, badRequestf("server: %s/%s operand %d is not a uvarint", req.CRDTType, req.Mutation, i)
	}
	return v, nil
}

func argStr(req *wire.Request, i int) (string, error) {
	if i >= len(req.Args) {
		return "", badRequestf("server: %s/%s needs %d operands, got %d", req.CRDTType, req.Mutation, i+1, len(req.Args))
	}
	return string(req.Args[i]), nil
}

// typeErrf reports a payload-type mismatch: the object exists but holds a
// different CRDT type than the request declared. Terminal (StatusError).
func typeErrf(key string, got crdt.State, want string) error {
	return fmt.Errorf("server: payload of %q is %s, not %s", key, got.TypeName(), want)
}

// updateFor translates an update request into the update closure submitted
// to the local replica. The closure validates the payload type at apply
// time, like the facade's typed handles. A mutation that has to observe
// before it writes (or-set remove) runs its linearizable query here;
// observeRTTs is what that query cost, zero for every other mutation. An
// error means nothing was submitted.
func (s *Server) updateFor(ctx context.Context, req *wire.Request) (fu crdt.Update, observeRTTs int, err error) {
	slot := string(s.node.ID())
	switch req.CRDTType {
	case crdt.TypeGCounter:
		if req.Mutation != wire.MutInc {
			return nil, 0, badRequestf("server: unknown g-counter mutation %q", req.Mutation)
		}
		n, err := argUint(req, 0)
		if err != nil {
			return nil, 0, err
		}
		return func(st crdt.State) (crdt.State, error) {
			c, ok := st.(*crdt.GCounter)
			if !ok {
				return nil, typeErrf(req.Key, st, req.CRDTType)
			}
			return c.Inc(slot, n), nil
		}, 0, nil

	case crdt.TypePNCounter:
		if req.Mutation != wire.MutInc && req.Mutation != wire.MutDec {
			return nil, 0, badRequestf("server: unknown pn-counter mutation %q", req.Mutation)
		}
		n, err := argUint(req, 0)
		if err != nil {
			return nil, 0, err
		}
		dec := req.Mutation == wire.MutDec
		return func(st crdt.State) (crdt.State, error) {
			c, ok := st.(*crdt.PNCounter)
			if !ok {
				return nil, typeErrf(req.Key, st, req.CRDTType)
			}
			if dec {
				return c.Dec(slot, n), nil
			}
			return c.Inc(slot, n), nil
		}, 0, nil

	case crdt.TypeORSet:
		elem, err := argStr(req, 0)
		if err != nil {
			return nil, 0, err
		}
		switch req.Mutation {
		case wire.MutAdd:
			// Observed-remove adds need a tag unique across the whole
			// system's lifetime: the actor is this replica, the sequence
			// number a server-lifetime counter seeded from the wall clock
			// so tags stay unique across server restarts.
			seq := s.seq.Add(1)
			return func(st crdt.State) (crdt.State, error) {
				set, ok := st.(*crdt.ORSet)
				if !ok {
					return nil, typeErrf(req.Key, st, req.CRDTType)
				}
				return set.Add(elem, slot, seq), nil
			}, 0, nil
		case wire.MutRemove:
			// A remove tombstones the tags it has observed, and the payload
			// of the serving replica is not an observation: it may lack an
			// add another replica already acknowledged. Learn the state
			// first, so every add acknowledged before this request is seen,
			// and carry what was learned into the update.
			learned, stats, err := s.node.QueryKey(ctx, req.Key)
			if err != nil {
				return nil, 0, err
			}
			observed, ok := learned.(*crdt.ORSet)
			if !ok {
				return nil, 0, typeErrf(req.Key, learned, req.CRDTType)
			}
			removed := observed.Remove(elem)
			return func(st crdt.State) (crdt.State, error) {
				merged, err := st.Merge(removed)
				if err != nil {
					return nil, typeErrf(req.Key, st, req.CRDTType)
				}
				return merged.(*crdt.ORSet).Remove(elem), nil
			}, stats.RoundTrips, nil
		default:
			return nil, 0, badRequestf("server: unknown or-set mutation %q", req.Mutation)
		}

	case crdt.TypeLWWRegister:
		if req.Mutation != wire.MutSet {
			return nil, 0, badRequestf("server: unknown lww-register mutation %q", req.Mutation)
		}
		val, err := argStr(req, 0)
		if err != nil {
			return nil, 0, err
		}
		ts := uint64(time.Now().UnixNano())
		return func(st crdt.State) (crdt.State, error) {
			reg, ok := st.(*crdt.LWWRegister)
			if !ok {
				return nil, typeErrf(req.Key, st, req.CRDTType)
			}
			return reg.Set(val, ts, slot), nil
		}, 0, nil

	default:
		return nil, 0, badRequestf("server: no mutations for CRDT type %q", req.CRDTType)
	}
}
