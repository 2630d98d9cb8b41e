package main

import (
	"context"
	"fmt"
	"os"
	"sort"
	"time"

	"crdtsmr/internal/crdt"
)

// runConfig is what the command line fixes for a run.
type runConfig struct {
	spec    *benchmarkSpec
	seed    uint64
	measure time.Duration // length of the measured window
	// setupTime is how long set-up may be repeated for; see setUp.
	setupTime time.Duration
	outDir    string // records and trace files
	scratch   string // DataDirs and probe files; emptied as the run goes
}

// Set-up is repeated and its median reported: one cluster start is 5 ms
// on the cheapest workload and 0.4 s on the dearest, too short and too
// uneven to compare run to run from a single reading.
const (
	minSetups = 3
	maxSetups = 40
	setupTime = 3 * time.Second // what a run gives its set-ups; the smoke tests give none
)

// setUp starts w's cluster and preloads it, again and again until
// cfg.setupTime has gone (at least minSetups times, at most maxSetups),
// and returns the last cluster with the median set-up time. dataRoot is
// the returned cluster's DataDir root (empty for volatile workloads); the
// caller removes it.
func setUp(w workload, cfg runConfig, template crdt.State) (s *served, dataRoot string, setup time.Duration, err error) {
	var times []time.Duration
	var total time.Duration
	for {
		start := time.Now()
		if s, dataRoot, err = startPreloaded(w, 3, cfg, template, nil); err != nil {
			return nil, "", 0, err
		}
		times = append(times, time.Since(start))
		total += times[len(times)-1]
		if len(times) == maxSetups || (len(times) >= minSetups && total >= cfg.setupTime) {
			sortDurations(times)
			return s, dataRoot, times[len(times)/2], nil
		}
		s.close()
		_ = os.RemoveAll(dataRoot)
	}
}

// startPreloaded starts an n-replica cluster for w — with a fresh
// DataDir root on durable workloads — and preloads it. The caller closes
// the cluster and removes dataRoot.
func startPreloaded(w workload, n int, cfg runConfig, template crdt.State, tr *tracer) (s *served, dataRoot string, err error) {
	if w.durable {
		if dataRoot, err = scratchDir(cfg.scratch, w.name+"-data-"); err != nil {
			return nil, "", err
		}
	}
	if s, err = startCluster(w, n, cfg.seed, dataRoot, tr); err == nil {
		if err = s.preload(w, template); err == nil {
			return s, dataRoot, nil
		}
		s.close()
	}
	_ = os.RemoveAll(dataRoot)
	return nil, "", err
}

func median(v []float64) float64 {
	sorted := append([]float64(nil), v...)
	sort.Float64s(sorted)
	n := len(sorted)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return sorted[n/2]
	}
	return (sorted[n/2-1] + sorted[n/2]) / 2
}

// runTimed is the untraced pass: set-up, warm-up, the measured window,
// then the output checks. Every end-to-end figure comes from here. A
// failed check returns an error and no record.
func runTimed(w workload, cfg runConfig) (*record, error) {
	var template crdt.State
	if w.preloadLen > 0 {
		template = setTemplate(w.preloadLen)
	}
	s, dataRoot, setup, err := setUp(w, cfg, template)
	if err != nil {
		return nil, err
	}
	defer func() { _ = os.RemoveAll(dataRoot) }()
	closed := false
	defer func() {
		if !closed {
			s.close()
		}
	}()

	l := newLoad(w, cfg.seed, s, newClientTarget(w, s.cl), nil)
	res := l.run(w.warmup, cfg.measure)

	rec := newRecord(w, cfg, s.nodes[0].Shards())
	rec.Attempted, rec.Failed = res.total.attempted, res.total.failed
	rec.EndToEnd = endToEnd(res, setup)
	if err := rec.EndToEnd.stamp(cfg.spec.EndToEnd); err != nil {
		return nil, err
	}
	rec.SliceOpsPerSec = res.opsPerSecond
	if res.total.firstErr != nil {
		rec.Errors = append(rec.Errors, res.total.firstErr.Error())
	}

	if err := l.check(s.cl); err != nil {
		return nil, err
	}
	if w.durable {
		// Persist-before-ack: stop everything, reopen the nodes from their
		// DataDirs alone and check the sums again.
		s.close()
		closed = true
		reopened, err := startCluster(w, 3, cfg.seed, dataRoot, nil)
		if err != nil {
			return nil, fmt.Errorf("%s: reopen from snapshots: %w", w.name, err)
		}
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		err = l.checkSums(ctx, reopened.cl)
		cancel()
		reopened.close()
		if err != nil {
			return nil, fmt.Errorf("after restart from snapshots: %w", err)
		}
	}
	rec.Correct = true
	return rec, nil
}

// endToEnd derives the end-to-end metrics from one measured window, all
// of it. A latency metric is absent only when no op of its kind
// succeeded.
func endToEnd(res *loadResult, setup time.Duration) metricSet {
	m := metricSet{}
	ok := float64(res.succeeded())
	m.set("ok_share", ok/float64(max(res.total.attempted, 1)))
	m.set("mem_heap_mb", float64(res.heapBytes)/(1<<20))
	m.set("setup_s", setup.Seconds())
	if ok == 0 {
		return m
	}
	m.set("throughput_ops_s", res.opsPerSec())
	m.setQuantile("read_p50_ms", res.total.reads, 0.50, ms)
	m.setQuantile("read_p95_ms", res.total.reads, 0.95, ms)
	m.setQuantile("update_p50_ms", res.total.updates, 0.50, ms)
	m.setQuantile("update_p95_ms", res.total.updates, 0.95, ms)
	if n := len(res.total.reads); n > 0 {
		m["read_rtts_mean"] = measurement{Value: float64(res.total.rttSum) / float64(n), Samples: n}
	}
	m.set("wire_bytes_per_op", float64(res.end.transport.BytesSent-res.begin.transport.BytesSent)/ok)
	return m
}
