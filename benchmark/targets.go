package main

import (
	"context"
	"fmt"
	"sync/atomic"

	"crdtsmr/client"
	"crdtsmr/internal/cluster"
	"crdtsmr/internal/crdt"
)

// clientTarget is the served path: the public client over every
// replica's server.
type clientTarget struct {
	cl       *client.Client
	names    []string
	counters []*client.Counter
	sets     []*client.Set
	orSet    bool
}

func newClientTarget(w workload, cl *client.Client) *clientTarget {
	t := &clientTarget{cl: cl, orSet: w.keyPrefix == crdt.TypeORSet}
	for i := 0; i < w.totalKeys(); i++ {
		name := w.keyName(i)
		t.names = append(t.names, name)
		t.counters = append(t.counters, cl.Counter(name))
		t.sets = append(t.sets, cl.Set(name))
	}
	return t
}

func (t *clientTarget) query(ctx context.Context, key int) (client.State, client.QueryInfo, error) {
	return t.cl.Query(ctx, t.names[key])
}

func (t *clientTarget) update(ctx context.Context, key int, i uint64) error {
	if t.orSet {
		return t.sets[key].Add(ctx, elementName(i))
	}
	return t.counters[key].Inc(ctx, 1)
}

// nodeTarget enters one layer down: cluster.Node.QueryKey/UpdateKey on
// the same wiring, with no server and no client in the path. Ops rotate
// over the replicas as the client's round-robin does, and the update
// closures are the ones internal/server builds for the same mutations.
type nodeTarget struct {
	nodes []*cluster.Node
	names []string
	orSet bool
	next  atomic.Uint64
	seq   atomic.Uint64
}

func newNodeTarget(w workload, nodes []*cluster.Node) *nodeTarget {
	t := &nodeTarget{nodes: nodes, orSet: w.keyPrefix == crdt.TypeORSet}
	for i := 0; i < w.totalKeys(); i++ {
		t.names = append(t.names, w.keyName(i))
	}
	return t
}

func (t *nodeTarget) pick() *cluster.Node {
	return t.nodes[t.next.Add(1)%uint64(len(t.nodes))]
}

func (t *nodeTarget) query(ctx context.Context, key int) (client.State, client.QueryInfo, error) {
	st, stats, err := t.pick().QueryKey(ctx, t.names[key])
	return st, client.QueryInfo{RoundTrips: stats.RoundTrips, Attempts: stats.Attempts, Path: stats.Path}, err
}

func (t *nodeTarget) update(ctx context.Context, key int, i uint64) error {
	node := t.pick()
	slot := string(node.ID())
	var fu crdt.Update
	if t.orSet {
		elem, seq := elementName(i), t.seq.Add(1)
		fu = func(st crdt.State) (crdt.State, error) {
			set, ok := st.(*crdt.ORSet)
			if !ok {
				return nil, fmt.Errorf("benchmark: %s holds a %s", t.names[key], st.TypeName())
			}
			return set.Add(elem, slot, seq), nil
		}
	} else {
		fu = func(st crdt.State) (crdt.State, error) {
			c, ok := st.(*crdt.GCounter)
			if !ok {
				return nil, fmt.Errorf("benchmark: %s holds a %s", t.names[key], st.TypeName())
			}
			return c.Inc(slot, 1), nil
		}
	}
	_, err := node.UpdateKey(ctx, t.names[key], fu)
	return err
}
