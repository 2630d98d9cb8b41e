package shootout

import (
	"context"
	"time"

	"crdtsmr/internal/cluster"
	"crdtsmr/internal/core"
	"crdtsmr/internal/crdt"
	"crdtsmr/internal/server"
	"crdtsmr/internal/transport"
	"crdtsmr/internal/wire"
)

// CRDTSpec races the paper's protocol with opts, with §3.6 batching
// (cluster.Config.BatchInterval) when batch is positive.
func CRDTSpec(opts core.Options, batch time.Duration) Spec {
	return Spec{Name: "crdtsmr", New: func(f *transport.Fabric, _ int64, n int) (Backend, error) {
		return newCRDTBackend(f, n, cluster.Config{Options: opts, BatchInterval: batch})
	}}
}

// crdtBackend races the paper's protocol on crdtsmrd's runtime: a
// cluster.Cluster over the fabric, so one cluster.Node per replica stepped
// on the fabric's clock, with server.TypedKeyInitial's key rule.
type crdtBackend struct {
	fab   *transport.Fabric
	c     *cluster.Cluster
	nodes []*cluster.Node
	rtts  map[int]int // client reads answered, by the round trips their query took
}

// newCRDTBackend starts n stepped nodes from cfg, one shard each unless it
// sets Shards.
func newCRDTBackend(f *transport.Fabric, n int, cfg cluster.Config) (*crdtBackend, error) {
	cfg.Members = Members(n)
	cfg.Initial = crdt.NewGCounter()
	cfg.InitialForKey = server.TypedKeyInitial(crdt.TypeGCounter)
	cfg.RetransmitInterval = RetransmitEvery
	if cfg.Shards == 0 {
		cfg.Shards = 1
	}
	c, err := cluster.New(f, cfg)
	if err != nil {
		return nil, err
	}
	return &crdtBackend{fab: f, c: c, nodes: c.Nodes(), rtts: make(map[int]int)}, nil
}

// mutation names one mutation of a key (cluster.Node.SubmitMutation).
type mutation struct {
	crdtType, name string
	arg            []byte
}

// submit runs one op at replica, a query when m is nil; done fires once,
// with its outcome or, if OpTimeout passes first, ErrOpTimeout.
func (b *crdtBackend) submit(replica int, key string, m *mutation, done func(crdt.State, error)) {
	settled := false
	var stopGuard func()
	settle := func(st crdt.State, stats core.QueryStats, err error) {
		if !settled {
			settled = true
			stopGuard()
			if err == nil && m == nil {
				b.rtts[stats.RoundTrips]++
			}
			done(st, err)
		}
	}
	stopGuard = b.fab.Schedule(OpTimeout, func() { settle(nil, core.QueryStats{}, ErrOpTimeout) })
	node, ctx := b.nodes[replica], context.Background()
	var err error
	if m == nil {
		err = node.SubmitQuery(ctx, key, settle)
	} else {
		err = node.SubmitMutation(ctx, key, m.crdtType, m.name, [][]byte{m.arg}, nil, func(_ core.UpdateStats, _ int, err error) {
			settle(nil, core.QueryStats{}, err)
		})
	}
	if err != nil {
		settle(nil, core.QueryStats{}, err)
	}
}

// mutate submits the named mutation (cluster.Node.SubmitMutation) of key.
func (b *crdtBackend) mutate(replica int, key, crdtType, name string, arg []byte, done func(error)) {
	b.submit(replica, key, &mutation{crdtType: crdtType, name: name, arg: arg}, func(_ crdt.State, err error) { done(err) })
}

// read queries key and reports val of the state learned.
func (b *crdtBackend) read(replica int, key string, val func(crdt.State) int64, done func(int64, error)) {
	b.submit(replica, key, nil, func(s crdt.State, err error) {
		if err != nil {
			done(0, err)
			return
		}
		done(val(s), nil)
	})
}

// Crash takes replica down for good: cluster.Node.SetCrashed fails every
// op open there or submitted later.
func (b *crdtBackend) Crash(replica int) { b.nodes[replica].SetCrashed(true) }

// TakeReadRTTs returns how many client reads each number of round trips
// answered since the last call.
func (b *crdtBackend) TakeReadRTTs() map[int]int {
	out := b.rtts
	b.rtts = make(map[int]int)
	return out
}

// Counters sums the protocol counters of every replica of every key.
func (b *crdtBackend) Counters() core.Counters {
	var sum core.Counters
	for _, node := range b.nodes {
		sum.Add(node.Counters())
	}
	return sum
}

// Inc implements Backend.
func (b *crdtBackend) Inc(replica int, key string, done func(error)) {
	b.mutate(replica, key, crdt.TypeGCounter, wire.MutInc, []byte{1}, done)
}

// Read implements Backend.
func (b *crdtBackend) Read(replica int, key string, done func(int64, error)) {
	b.read(replica, key, func(s crdt.State) int64 { return int64(s.(*crdt.GCounter).Value()) }, done)
}

// AddElem implements Backend.
func (b *crdtBackend) AddElem(replica int, key, elem string, done func(error)) {
	b.mutate(replica, key, crdt.TypeORSet, wire.MutAdd, []byte(elem), done)
}

// Card implements Backend.
func (b *crdtBackend) Card(replica int, key string, done func(int64, error)) {
	b.read(replica, key, func(s crdt.State) int64 { return int64(len(s.(*crdt.ORSet).Elements())) }, done)
}
