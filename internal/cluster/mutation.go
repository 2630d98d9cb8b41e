package cluster

// The mutation table: the named, typed update operations a front end can
// request. The protocol applies update functions only at the serving
// replica (§3.2: they never cross the replica wire), so a front end names
// a mutation and the node builds the function here: the network server
// for each client frame, the crdtsmr facade for each typed handle call.
// docs/PROTOCOL.md §2.3 lists the mutations per payload type.

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"

	"crdtsmr/internal/crdt"
	"crdtsmr/internal/wire"
)

// ErrBadMutation wraps every request-shape error of Node.Mutation: a type
// without mutations, an unknown mutation name, a missing operand or one
// that does not decode. Nothing was submitted.
var ErrBadMutation = errors.New("cluster: bad mutation")

func badMutation(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrBadMutation, fmt.Sprintf(format, args...))
}

// Mutation builds the update function of the named mutation on key, for a
// payload of type crdtType; it does not submit it. The function checks the
// payload type when it is applied and fails, naming both types, on any
// other. An or-set add is tagged with this node's ID and the node's tag
// counter, an lww-register write is stamped with the driver's clock, and an
// or-set remove first observes the set with a linearizable query, whose
// round trips are observeRTTs (zero for every other mutation). On error
// nothing was submitted; a malformed request wraps ErrBadMutation.
func (n *Node) Mutation(ctx context.Context, key, crdtType, mutation string, args [][]byte) (fu crdt.Update, observeRTTs int, err error) {
	slot := string(n.id)
	switch crdtType {
	case crdt.TypeGCounter:
		if mutation == wire.MutInc {
			d, err := uvarintOperand(crdtType, mutation, args)
			if err != nil {
				return nil, 0, err
			}
			return typed(key, crdtType, func(c *crdt.GCounter) crdt.State { return c.Inc(slot, d) }), 0, nil
		}

	case crdt.TypePNCounter:
		if mutation == wire.MutInc || mutation == wire.MutDec {
			d, err := uvarintOperand(crdtType, mutation, args)
			if err != nil {
				return nil, 0, err
			}
			if mutation == wire.MutDec {
				return typed(key, crdtType, func(c *crdt.PNCounter) crdt.State { return c.Dec(slot, d) }), 0, nil
			}
			return typed(key, crdtType, func(c *crdt.PNCounter) crdt.State { return c.Inc(slot, d) }), 0, nil
		}

	case crdt.TypeORSet:
		if mutation != wire.MutAdd && mutation != wire.MutRemove {
			break
		}
		arg, err := operand(crdtType, mutation, args)
		if err != nil {
			return nil, 0, err
		}
		elem := string(arg)
		if mutation == wire.MutAdd {
			// An observed-remove add needs a tag unique over the system's
			// lifetime: this node's ID and the next number of its tag
			// counter.
			seq := n.seq.Add(1)
			return typed(key, crdtType, func(s *crdt.ORSet) crdt.State { return s.Add(elem, slot, seq) }), 0, nil
		}
		// A remove tombstones the tags it has observed, and this replica's
		// payload is not an observation: it may lack an add another
		// replica already acknowledged. Learn the state first, so every
		// add acknowledged before this call is seen, and carry what was
		// learned into the update.
		learned, stats, err := n.QueryKey(ctx, key)
		if err != nil {
			return nil, 0, err
		}
		observed, ok := learned.(*crdt.ORSet)
		if !ok {
			return nil, 0, payloadTypeErr(key, learned, crdtType)
		}
		removed := observed.Remove(elem)
		return typed(key, crdtType, func(s *crdt.ORSet) crdt.State {
			merged, _ := s.Merge(removed) // an OR-Set joins any OR-Set
			return merged.(*crdt.ORSet).Remove(elem)
		}), stats.RoundTrips, nil

	case crdt.TypeLWWRegister:
		if mutation == wire.MutSet {
			arg, err := operand(crdtType, mutation, args)
			if err != nil {
				return nil, 0, err
			}
			val, ts := string(arg), uint64(n.drv.now().UnixNano())
			return typed(key, crdtType, func(r *crdt.LWWRegister) crdt.State { return r.Set(val, ts, slot) }), 0, nil
		}

	default:
		return nil, 0, badMutation("no mutations for CRDT type %q", crdtType)
	}
	return nil, 0, badMutation("unknown %s mutation %q", crdtType, mutation)
}

// typed builds the update function that applies f to a payload of type T,
// and fails on any other payload.
func typed[T crdt.State](key, want string, f func(T) crdt.State) crdt.Update {
	return func(st crdt.State) (crdt.State, error) {
		p, ok := st.(T)
		if !ok {
			return nil, payloadTypeErr(key, st, want)
		}
		return f(p), nil
	}
}

// payloadTypeErr reports that key holds a payload of another type than
// the mutation declared.
func payloadTypeErr(key string, got crdt.State, want string) error {
	return fmt.Errorf("cluster: payload of %q is %s, not %s", key, got.TypeName(), want)
}

// operand returns a mutation's one operand.
func operand(crdtType, mutation string, args [][]byte) ([]byte, error) {
	if len(args) == 0 {
		return nil, badMutation("%s/%s needs 1 operand, got 0", crdtType, mutation)
	}
	return args[0], nil
}

// uvarintOperand returns a mutation's one operand decoded as a uvarint.
func uvarintOperand(crdtType, mutation string, args [][]byte) (uint64, error) {
	arg, err := operand(crdtType, mutation, args)
	if err != nil {
		return 0, err
	}
	v, k := binary.Uvarint(arg)
	if k <= 0 {
		return 0, badMutation("%s/%s operand is not a uvarint", crdtType, mutation)
	}
	return v, nil
}
