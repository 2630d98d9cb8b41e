package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"crdtsmr/internal/crdt"
)

// withCluster starts and preloads an n-replica cluster for w, runs fn
// and tears it down.
func withCluster(w workload, n int, cfg runConfig, template crdt.State, tr *tracer, fn func(*served) error) error {
	s, dataRoot, err := startPreloaded(w, n, cfg, template, tr)
	if err != nil {
		return err
	}
	defer os.RemoveAll(dataRoot)
	defer s.close()
	return fn(s)
}

func p50us(sorted []time.Duration) float64 {
	v, _ := percentile(sorted, 0.50)
	return us(v)
}

// runTraced is the traced pass. It replays the seed's op stream four
// ways — through the client untraced (the reference), through the client
// with the transport decorator recording spans, straight into
// cluster.Node, and through the client against a one-member cluster —
// then times the layers below through their own public functions. The
// windows are fractions of cfg.measure so the whole pass takes about as
// long as a timed run.
func runTraced(w workload, cfg runConfig) (*record, error) {
	var template crdt.State
	if w.preloadLen > 0 {
		template = setTemplate(w.preloadLen)
	}
	total := cfg.measure
	warm := w.warmup / 2
	m := metricSet{}
	rec := newRecord(w, cfg, 0)

	// Reference: the served path, tracing off.
	var ref *loadResult
	err := withCluster(w, 3, cfg, template, nil, func(s *served) error {
		rec.Env.Shards = s.nodes[0].Shards()
		ref = newLoad(w, cfg.seed, s, newClientTarget(w, s.cl), nil).run(warm, total/5)
		return nil
	})
	if err != nil {
		return nil, err
	}

	// The same path with spans on; its outputs are checked.
	tr := newTracer()
	var live *loadResult
	var persistErrors uint64
	err = withCluster(w, 3, cfg, template, tr, func(s *served) error {
		l := newLoad(w, cfg.seed, s, newClientTarget(w, s.cl), tr)
		live = l.run(warm, total/5)
		for _, node := range s.nodes {
			persistErrors += node.PersistErrors()
		}
		return l.check(s.cl)
	})
	if err != nil {
		return nil, err
	}
	if live.succeeded() == 0 || ref.succeeded() == 0 {
		return nil, fmt.Errorf("%s: traced pass completed no ops (first error: %v)", w.name, live.total.firstErr)
	}
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return nil, err
	}
	if err := tr.write(filepath.Join(cfg.outDir, w.name+".trace.json"), w.name, cfg.seed); err != nil {
		return nil, err
	}
	rec.Attempted, rec.Failed = live.total.attempted, live.total.failed
	liveFigures(m, live, tr, persistErrors)
	m.set("trace.overhead_share", 1-live.opsPerSec()/ref.opsPerSec())
	m.set("process.cpu_ms_per_op", ms(ref.cpu)/float64(ref.succeeded()))

	// One layer down: cluster.Node entered directly, same wiring.
	var direct *loadResult
	err = withCluster(w, 3, cfg, template, nil, func(s *served) error {
		direct = newLoad(w, cfg.seed, s, newNodeTarget(w, s.nodes), nil).run(warm/2, total/10)
		return nil
	})
	if err != nil {
		return nil, err
	}
	if direct.succeeded() == 0 {
		return nil, fmt.Errorf("%s: no op entered at cluster.Node succeeded (first error: %v)", w.name, direct.total.firstErr)
	}
	m.setQuantile("cluster.query_us", direct.total.reads, 0.50, us)
	m.setQuantile("cluster.update_us", direct.total.updates, 0.50, us)
	m.set("cluster.direct_ops_s", direct.opsPerSec())
	directLat := direct.allLat()
	m.set("serving.overhead_us", p50us(ref.allLat())-p50us(directLat))

	// The single-node baseline: the full client path, no replica network.
	var single *loadResult
	err = withCluster(w, 1, cfg, template, nil, func(s *served) error {
		single = newLoad(w, cfg.seed, s, newClientTarget(w, s.cl), nil).run(warm/2, total/10)
		return nil
	})
	if err != nil {
		return nil, err
	}
	m.set("server.single_node_us", p50us(single.allLat()))

	// The layers below, through their own public functions.
	envelope := medianInt(tr.sizes)
	budget := total / 100
	stepped, err := probeCore(m, w, cfg.seed, template)
	if err != nil {
		return nil, err
	}
	if err := probeCRDT(m, w, template, budget); err != nil {
		return nil, err
	}
	if err := probeWire(m, w, template, envelope, budget); err != nil {
		return nil, err
	}
	if err := probeTCPHop(m, envelope, budget); err != nil {
		return nil, err
	}
	if err := probePersist(m, w, stepped, cfg.scratch, budget); err != nil {
		return nil, err
	}

	// cluster's self time: its entry minus the protocol steps and the
	// hops on the blocking path (two per round trip) below it. Means, not
	// medians: only means add up across a mix of reads and updates.
	readShare := float64(len(direct.total.reads)) / float64(len(directLat))
	rounds := readShare*meanRTTs(direct) + (1 - readShare)
	step := readShare*m["core.query_step_us"].Value + (1-readShare)*m["core.update_step_us"].Value
	m.set("cluster.self_us", meanUS(directLat)-step-2*rounds*meanUS(tr.hops))

	if err := m.stamp(cfg.spec.PerLayer); err != nil {
		return nil, err
	}
	rec.PerLayer = m
	rec.Correct = true
	return rec, nil
}

// liveFigures derives the per-layer metrics that come from the live
// traced window: counter deltas, QueryInfo tallies and hop spans.
func liveFigures(m metricSet, res *loadResult, tr *tracer, persistErrors uint64) {
	ops := float64(res.succeeded())
	b, e := res.begin.counters, res.end.counters
	queries := float64(e.Queries - b.Queries)
	perQuery := func(v uint64) float64 {
		if queries == 0 {
			return 0
		}
		return float64(v) / queries
	}
	m.set("core.retries_per_query", perQuery(e.Retries-b.Retries))
	m.set("core.vote_share", perQuery(e.ByVote-b.ByVote))
	m.set("core.lease_hit_share", perQuery(e.LeaseHits-b.LeaseHits))
	m.set("core.stale_msgs_per_op", float64(e.StaleMsgs-b.StaleMsgs)/ops)
	m.set("core.merge_fallbacks_per_op", float64(e.MergeFallbacks-b.MergeFallbacks)/ops)
	if n := float64(len(res.total.reads)); n > 0 {
		m.set("core.reads_le1rtt_share", float64(res.total.rttLE1)/n)
		m.set("core.reads_le3rtt_share", float64(res.total.rttLE3)/n)
	}

	bt, et := res.begin.transport, res.end.transport
	m.set("transport.msgs_per_op", float64(et.Sent-bt.Sent)/ops)
	m.set("transport.bytes_per_op", float64(et.BytesSent-bt.BytesSent)/ops)
	m.set("transport.dropped", float64(et.Dropped-bt.Dropped))
	var busiest uint64
	for link, ls := range et.Links {
		if d := ls.BytesSent - bt.Links[link].BytesSent; d > busiest {
			busiest = d
		}
	}
	if sent := et.BytesSent - bt.BytesSent; sent > 0 {
		m.set("transport.busiest_link_share", float64(busiest)/float64(sent))
	}
	hops := append([]time.Duration(nil), tr.hops...)
	sortDurations(hops)
	m.setQuantile("transport.hop_us_p50", hops, 0.50, us)

	m.set("cluster.inbound_dropped", float64(e.InboundDropped-b.InboundDropped))
	m.set("cluster.budget_delayed", float64(e.BudgetDelayed-b.BudgetDelayed))
	m.set("cluster.persist_errors", float64(persistErrors))

	m.set("server.served", float64(res.end.served-res.begin.served))
	m.set("server.shed_requests", float64(res.end.shed-res.begin.shed))
	m.set("client.errors_busy", float64(res.total.errBusy))
	m.set("client.errors_unavailable", float64(res.total.errUnavailable))
	m.set("client.errors_uncertain", float64(res.total.errUncertain))
	m.set("client.errors_timeout", float64(res.total.errTimeout))
	m.set("client.failed_share", float64(res.total.failed)/float64(res.total.attempted))
}

// meanRTTs is the mean round trips of a window's successful reads (an
// update always takes one).
func meanRTTs(res *loadResult) float64 {
	if len(res.total.reads) == 0 {
		return 0
	}
	return float64(res.total.rttSum) / float64(len(res.total.reads))
}

func meanUS(d []time.Duration) float64 {
	if len(d) == 0 {
		return 0
	}
	var sum time.Duration
	for _, v := range d {
		sum += v
	}
	return us(sum) / float64(len(d))
}

func medianInt(v []int) int {
	if len(v) == 0 {
		return 64
	}
	sorted := append([]int(nil), v...)
	sort.Ints(sorted)
	return sorted[len(sorted)/2]
}
