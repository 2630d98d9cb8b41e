package main

import (
	"context"
	"fmt"
	"time"

	"crdtsmr/client"
	"crdtsmr/internal/checker"
	"crdtsmr/internal/crdt"
)

// check verifies the run's outputs through the public client, after the
// sessions have stopped: every counter's final value lies between the
// increments acknowledged and the increments attempted, every
// acknowledged or-set add is present, and the sampled keys' call/return
// histories are linearizable.
func (l *load) check(cl *client.Client) error {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if l.w.keyPrefix == crdt.TypeORSet {
		if err := l.checkSets(ctx, cl); err != nil {
			return err
		}
	} else if err := l.checkSums(ctx, cl); err != nil {
		return err
	}
	if err := checker.CheckKeyedLinearizable(l.keyed); err != nil {
		return fmt.Errorf("%s: linearizability: %w", l.w.name, err)
	}
	return nil
}

// checkSums reads every touched counter once and compares it with the
// whole run's tallies. It also runs, unchanged, against a cluster
// reopened from the DataDirs alone: persist-before-ack means no
// acknowledged increment may be missing after a restart.
func (l *load) checkSums(ctx context.Context, cl *client.Client) error {
	for i, name := range l.keyNames {
		acked, attempted := l.ackedUpd[i].Load(), l.attemptedUpd[i].Load()
		if attempted == 0 {
			continue
		}
		got, err := cl.Counter(name).Value(ctx)
		if err != nil {
			return fmt.Errorf("%s: final read of %s: %w", l.w.name, name, err)
		}
		if got < acked || got > attempted {
			return fmt.Errorf("%s: %s = %d, outside [acked %d, attempted %d]", l.w.name, name, got, acked, attempted)
		}
	}
	return nil
}

func (l *load) checkSets(ctx context.Context, cl *client.Client) error {
	var acked []ackedAdd
	for _, st := range l.sessions {
		acked = append(acked, st.ackedAdds...)
	}
	byKey := map[int][]string{}
	for _, a := range acked {
		byKey[a.key] = append(byKey[a.key], a.elem)
	}
	for key, elems := range byKey {
		name := l.keyNames[key]
		st, _, err := cl.Query(ctx, name)
		if err != nil {
			return fmt.Errorf("%s: final read of %s: %w", l.w.name, name, err)
		}
		set, ok := st.(*crdt.ORSet)
		if !ok {
			return fmt.Errorf("%s: %s holds a %s", l.w.name, name, st.TypeName())
		}
		for _, e := range elems {
			if !set.Contains(e) {
				return fmt.Errorf("%s: acknowledged add of %q is missing from %s", l.w.name, e, name)
			}
		}
	}
	return nil
}
