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

	"crdtsmr/internal/core"
	"crdtsmr/internal/crdt"
	"crdtsmr/internal/wire"
)

// ErrBadMutation wraps every request-shape error of Node.SubmitMutation: a type
// without mutations, an unknown mutation name, a missing operand or one
// that does not decode. Nothing was submitted.
var ErrBadMutation = errors.New("cluster: bad mutation")

func badMutation(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrBadMutation, fmt.Sprintf(format, args...))
}

// ErrAbandoned completes a mutation whose caller's proceed hook declined
// it (SubmitMutation): the update was never submitted.
var ErrAbandoned = errors.New("cluster: mutation abandoned before submission")

// SubmitMutation builds the named mutation on key, for a payload of type
// crdtType, and submits it as SubmitUpdate does; done runs once on the
// key's shard loop and must not block. The update function checks the
// payload type when it is applied and fails, naming both types, on any
// other. An or-set add is tagged with this node's ID and the node's tag
// counter, and an lww-register write is stamped with the driver's clock.
//
// An or-set remove first observes the set with a linearizable query
// (SubmitQuery), whose round trips done reports as observeRTTs (zero for
// every other mutation). The query's completion builds the update from
// the state it learned and starts it directly on the same loop, never
// through the shard's own queue, so no goroutine waits between the two.
//
// proceed, when not nil, runs once right before the update is handed to
// the protocol: on the caller's goroutine, or for a remove on the loop
// once its observation is learned. When it returns false nothing is
// submitted: SubmitMutation returns ErrAbandoned, or for a remove done
// gets it. On error nothing was submitted; a malformed request wraps
// ErrBadMutation.
func (n *Node) SubmitMutation(ctx context.Context, key, crdtType, mutation string, args [][]byte, proceed func() bool, done func(stats core.UpdateStats, observeRTTs int, err error)) error {
	fu, observe, err := n.mutation(key, crdtType, mutation, args)
	if err != nil {
		return err
	}
	if observe == nil {
		if proceed != nil && !proceed() {
			return ErrAbandoned
		}
		return n.SubmitUpdate(ctx, key, fu, func(stats core.UpdateStats, err error) { done(stats, 0, err) })
	}
	s := n.shardOf(key)
	return n.SubmitQuery(ctx, key, func(learned crdt.State, qs core.QueryStats, err error) {
		if err == nil {
			fu, err = observe(learned)
		}
		if err == nil && proceed != nil && !proceed() {
			err = ErrAbandoned
		}
		if err != nil {
			done(core.UpdateStats{}, 0, err)
			return
		}
		s.handle(nodeEvent{kind: evUpdate, key: key, update: &updateOp{fu: fu, done: func(stats core.UpdateStats, err error) {
			done(stats, qs.RoundTrips, err)
		}}})
	})
}

// Mutate is SubmitMutation that blocks until the update is durable on a
// quorum or fails, or ctx is done.
func (n *Node) Mutate(ctx context.Context, key, crdtType, mutation string, args [][]byte) (core.UpdateStats, int, error) {
	var stats core.UpdateStats
	var observeRTTs int
	var opErr error
	done := make(chan struct{})
	if err := n.SubmitMutation(ctx, key, crdtType, mutation, args, nil, func(st core.UpdateStats, rtts int, err error) {
		stats, observeRTTs, opErr = st, rtts, err
		close(done)
	}); err != nil {
		return core.UpdateStats{}, 0, err
	}
	if err := n.drv.wait(ctx, done); err != nil {
		return core.UpdateStats{}, 0, err
	}
	return stats, observeRTTs, opErr
}

// mutation builds the update function of the named mutation on key, or for
// an or-set remove the function that builds it from an observed state.
func (n *Node) mutation(key, crdtType, mutation string, args [][]byte) (fu crdt.Update, observe func(crdt.State) (crdt.Update, error), err error) {
	slot := string(n.id)
	switch crdtType {
	case crdt.TypeGCounter:
		if mutation == wire.MutInc {
			d, err := uvarintOperand(crdtType, mutation, args)
			if err != nil {
				return nil, nil, err
			}
			return typed(key, crdtType, func(c *crdt.GCounter) crdt.State { return c.Inc(slot, d) }), nil, nil
		}

	case crdt.TypePNCounter:
		if mutation == wire.MutInc || mutation == wire.MutDec {
			d, err := uvarintOperand(crdtType, mutation, args)
			if err != nil {
				return nil, nil, err
			}
			if mutation == wire.MutDec {
				return typed(key, crdtType, func(c *crdt.PNCounter) crdt.State { return c.Dec(slot, d) }), nil, nil
			}
			return typed(key, crdtType, func(c *crdt.PNCounter) crdt.State { return c.Inc(slot, d) }), nil, nil
		}

	case crdt.TypeORSet:
		if mutation != wire.MutAdd && mutation != wire.MutRemove {
			break
		}
		arg, err := operand(crdtType, mutation, args)
		if err != nil {
			return nil, nil, err
		}
		elem := string(arg)
		if mutation == wire.MutAdd {
			// An observed-remove add needs a tag unique over the system's
			// lifetime: this node's ID and the next number of its tag
			// counter.
			seq := n.seq.Add(1)
			return typed(key, crdtType, func(s *crdt.ORSet) crdt.State { return s.Add(elem, slot, seq) }), nil, nil
		}
		// A remove tombstones the tags it has observed, and this replica's
		// payload is not an observation: it may lack an add another
		// replica already acknowledged. Learn the state first, so every
		// add acknowledged before this call is seen, and carry what was
		// learned into the update.
		return nil, func(learned crdt.State) (crdt.Update, error) {
			observed, ok := learned.(*crdt.ORSet)
			if !ok {
				return nil, payloadTypeErr(key, learned, crdtType)
			}
			removed := observed.Remove(elem)
			return typed(key, crdtType, func(s *crdt.ORSet) crdt.State {
				merged, _ := s.Merge(removed) // an OR-Set joins any OR-Set
				return merged.(*crdt.ORSet).Remove(elem)
			}), nil
		}, nil

	case crdt.TypeLWWRegister:
		if mutation == wire.MutSet {
			arg, err := operand(crdtType, mutation, args)
			if err != nil {
				return nil, nil, err
			}
			val, ts := string(arg), uint64(n.drv.now().UnixNano())
			return typed(key, crdtType, func(r *crdt.LWWRegister) crdt.State { return r.Set(val, ts, slot) }), nil, nil
		}

	default:
		return nil, nil, badMutation("no mutations for CRDT type %q", crdtType)
	}
	return nil, nil, badMutation("unknown %s mutation %q", crdtType, mutation)
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
