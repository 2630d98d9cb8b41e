package main

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
	"unsafe"

	"crdtsmr/client"
	"crdtsmr/internal/checker"
	"crdtsmr/internal/core"
	"crdtsmr/internal/crdt"
	"crdtsmr/internal/transport"
)

// Phases of one load run. Sessions keep issuing ops across the
// warm-up → measure boundary; an op counts as measured only when it both
// started and finished inside the measured window.
const (
	phaseWarmup int32 = iota
	phaseMeasure
	phaseDone
)

// sessionStats is what one closed-loop caller accumulates; each session
// owns one, so the hot loop shares nothing but the op-stream cursor.
type sessionStats struct {
	reads, updates []time.Duration // latencies of measured, successful ops only
	rttSum         uint64          // QueryInfo.RoundTrips over measured reads
	rttLE1, rttLE3 uint64
	attempted      uint64 // measured ops, failures included
	failed         uint64
	errBusy        uint64
	errUnavailable uint64
	errUncertain   uint64
	errTimeout     uint64
	errOther       uint64
	firstErr       error
	ackedAdds      []ackedAdd
}

type ackedAdd struct {
	key  int
	elem string
}

// load drives one workload's op stream through the public client.
type load struct {
	w    workload
	seed uint64
	s    *served
	tr   *tracer // nil when tracing is off

	keyNames []string
	target   target

	phase     atomic.Int32
	recording atomic.Bool   // histories still being recorded
	next      atomic.Uint64 // op-stream cursor
	measured  atomic.Uint64 // successful measured ops so far, for the second-by-second diagnostic

	// Whole-run per-key tallies for the output checks (warm-up included).
	attemptedUpd []atomic.Uint64
	ackedUpd     []atomic.Uint64
	hist         []*checker.History // nil for keys that are not sampled
	keyed        *checker.KeyedHistory

	sessions []*sessionStats
}

// target is the entry point a load run drives: the public client (the
// served path every end-to-end figure comes from) or, for the cluster
// layer's peeled probe, the nodes themselves.
type target interface {
	query(ctx context.Context, key int) (client.State, client.QueryInfo, error)
	// update issues op i's mutation of key: an increment, or an or-set
	// add of op i's fresh element.
	update(ctx context.Context, key int, i uint64) error
}

func newLoad(w workload, seed uint64, s *served, tgt target, tr *tracer) *load {
	l := &load{w: w, seed: seed, s: s, target: tgt, tr: tr, keyed: checker.NewKeyedHistory()}
	n := w.totalKeys()
	l.keyNames = make([]string, n)
	l.attemptedUpd = make([]atomic.Uint64, n)
	l.ackedUpd = make([]atomic.Uint64, n)
	l.hist = make([]*checker.History, n)
	for i := 0; i < n; i++ {
		name := w.keyName(i)
		l.keyNames[i] = name
		if w.keyPrefix == crdt.TypeGCounter && w.sampled(i) {
			l.hist[i] = l.keyed.For(name)
		}
	}
	l.recording.Store(true)
	return l
}

// windowStats is what the coordinator snapshots at both ends of the
// measured window.
type windowStats struct {
	transport transport.Stats
	counters  core.Counters
	served    uint64
	shed      uint64
}

func (l *load) snapshot() windowStats {
	ws := windowStats{transport: l.s.stats(), counters: l.s.counters()}
	for _, srv := range l.s.servers {
		ws.served += srv.Served()
		ws.shed += srv.ShedRequests()
	}
	return ws
}

// processCPU is the process's user+system CPU time so far.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// loadResult is one finished load run. Every figure is taken over the
// whole measured window.
type loadResult struct {
	begin, end windowStats
	length     time.Duration // of the measured window
	cpu        time.Duration // process user+system CPU over the window
	heapBytes  uint64
	total      sessionStats // sessions merged, latencies sorted
	// opsPerSecond is the window's successful ops second by second. No
	// metric is derived from it; it shows how steady the host was.
	opsPerSecond []float64
}

func (r *loadResult) succeeded() uint64 { return r.total.attempted - r.total.failed }

func (r *loadResult) opsPerSec() float64 { return float64(r.succeeded()) / r.length.Seconds() }

// allLat is the sorted union of the read and update latencies.
func (r *loadResult) allLat() []time.Duration {
	all := append(append([]time.Duration(nil), r.total.reads...), r.total.updates...)
	sortDurations(all)
	return all
}

// run warms up, measures for the given time, stops the sessions and
// returns the window's figures. The cluster stays up for the checks.
func (l *load) run(warmup, measure time.Duration) *loadResult {
	l.sessions = make([]*sessionStats, l.w.sessions)
	var wg sync.WaitGroup
	for i := range l.sessions {
		st := &sessionStats{}
		l.sessions[i] = st
		wg.Add(1)
		go func() {
			defer wg.Done()
			l.session(st)
		}()
	}
	time.Sleep(warmup)
	res := &loadResult{}
	if l.w.historyWarmup {
		l.recording.Store(false)
	}
	res.begin = l.snapshot()
	cpu, start := processCPU(), time.Now()
	l.phase.Store(phaseMeasure)
	var seen uint64
	for prev, elapsed := start, time.Duration(0); elapsed < measure; {
		elapsed = min(elapsed+time.Second, measure)
		time.Sleep(time.Until(start.Add(elapsed)))
		now, done := time.Now(), l.measured.Load()
		res.opsPerSecond = append(res.opsPerSecond, float64(done-seen)/now.Sub(prev).Seconds())
		prev, seen = now, done
	}
	l.phase.Store(phaseDone)
	res.length, res.cpu = time.Since(start), processCPU()-cpu
	res.end = l.snapshot()
	wg.Wait()

	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	// The generator's own per-op sample buffers grow with the ops a run
	// completes; they are not the system's memory.
	res.heapBytes = ms.HeapAlloc
	for _, st := range l.sessions {
		res.heapBytes -= uint64(cap(st.reads)+cap(st.updates)) * uint64(unsafe.Sizeof(time.Duration(0)))
		res.total.merge(st)
	}
	sortDurations(res.total.reads)
	sortDurations(res.total.updates)
	return res
}

func (t *sessionStats) merge(o *sessionStats) {
	t.reads = append(t.reads, o.reads...)
	t.updates = append(t.updates, o.updates...)
	t.rttSum += o.rttSum
	t.rttLE1 += o.rttLE1
	t.rttLE3 += o.rttLE3
	t.attempted += o.attempted
	t.failed += o.failed
	t.errBusy += o.errBusy
	t.errUnavailable += o.errUnavailable
	t.errUncertain += o.errUncertain
	t.errTimeout += o.errTimeout
	t.errOther += o.errOther
	if t.firstErr == nil {
		t.firstErr = o.firstErr
	}
	t.ackedAdds = append(t.ackedAdds, o.ackedAdds...)
}

func sortDurations(d []time.Duration) {
	sort.Slice(d, func(i, j int) bool { return d[i] < d[j] })
}

// session is one closed-loop caller: it draws the next op of the shared
// stream, issues it through the public client, waits for the reply and
// repeats until the run is over.
func (l *load) session(st *sessionStats) {
	ctx := context.Background()
	for {
		ph := l.phase.Load()
		if ph == phaseDone {
			return
		}
		i := l.next.Add(1) - 1
		o := l.w.opAt(l.seed, i)
		h := l.hist[o.key]
		if h != nil && !l.recording.Load() {
			h = nil
		}
		var span *span
		if l.tr != nil {
			span = l.tr.beginCall(l.keyNames[o.key], o.kind)
		}

		var err error
		var lat time.Duration
		if o.kind == opRead {
			id := 0
			if h != nil {
				id = h.Begin(checker.OpRead)
			}
			start := time.Now()
			state, info, qerr := l.target.query(ctx, o.key)
			lat = time.Since(start)
			err = qerr
			var value uint64
			if err == nil {
				value, err = readValue(l.w, state)
			}
			if h != nil {
				// A read that outlives the recording window may have seen
				// increments the history no longer records.
				if err == nil && l.recording.Load() {
					h.End(id, value)
				} else {
					h.Discard(id)
				}
			}
			if err == nil && ph == phaseMeasure && l.phase.Load() == phaseMeasure {
				st.reads = append(st.reads, lat)
				st.rttSum += uint64(info.RoundTrips)
				if info.RoundTrips <= 1 {
					st.rttLE1++
				}
				if info.RoundTrips <= 3 {
					st.rttLE3++
				}
			}
		} else {
			id := 0
			if h != nil {
				id = h.Begin(checker.OpInc)
			}
			l.attemptedUpd[o.key].Add(1)
			start := time.Now()
			err = l.target.update(ctx, o.key, i)
			lat = time.Since(start)
			if err == nil {
				l.ackedUpd[o.key].Add(1)
				if l.w.keyPrefix == crdt.TypeORSet {
					st.ackedAdds = append(st.ackedAdds, ackedAdd{key: o.key, elem: elementName(i)})
				}
			}
			if h != nil {
				if err == nil {
					h.End(id, 0)
				} else {
					h.Abandon(id) // fate unknown: may take effect at any later point
				}
			}
			if err == nil && ph == phaseMeasure && l.phase.Load() == phaseMeasure {
				st.updates = append(st.updates, lat)
			}
		}
		if span != nil {
			l.tr.endCall(span, err)
		}
		if ph == phaseMeasure && l.phase.Load() == phaseMeasure {
			st.attempted++
			if err != nil {
				st.countError(err)
			} else {
				l.measured.Add(1)
			}
		} else if err != nil && st.firstErr == nil {
			st.firstErr = err
		}
	}
}

// readValue extracts what the checks need from a read's state: the
// counter's value, or nothing for a set (whose membership is checked
// once, at the end).
func readValue(w workload, state client.State) (uint64, error) {
	switch st := state.(type) {
	case *crdt.GCounter:
		return st.Value(), nil
	case *crdt.ORSet:
		return 0, nil
	default:
		return 0, fmt.Errorf("benchmark: %s read returned a %s", w.name, state.TypeName())
	}
}

// countError files a failed op under its client error class. Failed,
// refused and timed-out ops all count in failed_share and never
// contribute a latency sample.
func (t *sessionStats) countError(err error) {
	t.failed++
	if t.firstErr == nil {
		t.firstErr = err
	}
	switch {
	case errors.Is(err, client.ErrBusy):
		t.errBusy++
	case errors.Is(err, client.ErrTimeout):
		t.errTimeout++
	case errors.Is(err, client.ErrUncertain):
		t.errUncertain++
	case errors.Is(err, client.ErrUnavailable):
		t.errUnavailable++
	default:
		t.errOther++
	}
}

// percentile returns the q-quantile of sorted samples. A tail
// percentile stands on at least ten samples beyond it, so that it is
// never one or two outliers (p95 needs 200 samples); with fewer, ok is
// false and v is only the best estimate the sample gives (0 from no
// samples at all).
func percentile(sorted []time.Duration, q float64) (v time.Duration, ok bool) {
	n := len(sorted)
	if n == 0 {
		return 0, false
	}
	ok = q <= 0.5 || float64(n)*(1-q) >= 10-1e-9
	return sorted[min(int(float64(n)*q), n-1)], ok
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
