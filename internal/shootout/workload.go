package shootout

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"crdtsmr/internal/core"
	"crdtsmr/internal/transport"
)

// settleTime is the virtual warmup before any measurement: long enough
// for the log-based protocols to elect (≈2·ElectionTimeout plus a round
// trip) and for the Paxos lease to validate off heartbeats.
const settleTime = 400 * time.Millisecond

// virtualCap aborts a run whose backend stopped making progress.
const virtualCap = 5 * time.Minute

// SessionStats is the hot-key read-after-write figure for one backend.
type SessionStats struct {
	// PerReplica holds the session p50 with the client pinned at each
	// replica in turn (fresh same-seed run per pin, so the leader lands on
	// the same node every time and the pin sweeps leader and followers).
	PerReplica []time.Duration
	// Median across replicas: the latency a client at a random replica
	// sees. Log-based protocols pay forwarding at followers; the leaderless
	// protocol serves every replica alike. This is the guarded metric.
	Median time.Duration
	// Errors counts sessions that completed with a failed op (excluded
	// from the samples).
	Errors int
}

// ReadAfterWrite runs the paper's hot-key Session at every pin.
func ReadAfterWrite(spec Spec, n int, net Net, seed int64, sessions, warmup int) (SessionStats, error) {
	out := SessionStats{PerReplica: make([]time.Duration, n)}
	for pin := 0; pin < n; pin++ {
		st, err := Session(spec, n, net, seed, pin, sessions, warmup)
		if err != nil {
			return SessionStats{}, fmt.Errorf("%s pin %d: %w", spec.Name, pin, err)
		}
		out.PerReplica[pin] = st.P50
		out.Errors += st.Errors
	}
	sorted := append([]time.Duration(nil), out.PerReplica...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	out.Median = sorted[len(sorted)/2]
	return out, nil
}

// PinStats is one Session run.
type PinStats struct {
	P50     time.Duration // whole session: increment submitted until both ops completed
	ReadP50 time.Duration // the read alone
	Errors  int           // sessions with a failed op, excluded from the samples
	// Counters sums the paper's protocol's counters over every replica and
	// key at the end of the run; it is zero for the other backends.
	Counters core.Counters
}

// Session runs the hot-key session with the client pinned at one replica:
// fire an increment, read the same key 100µs later (virtual), wait for
// both; repeat. The first warmup sessions are discarded.
func Session(spec Spec, n int, net Net, seed int64, pin, sessions, warmup int) (PinStats, error) {
	sim := NewSim(seed, net)
	backend, err := spec.New(sim, n)
	if err != nil {
		return PinStats{}, err
	}
	const key = "c-hot"
	// Settle: elections, then one priming read at the pin so per-key state
	// and leases exist before measurement.
	sim.RunUntil(settleTime)
	primed := false
	backend.Read(pin, key, func(int64, error) { primed = true })
	if !sim.RunUntilDone(virtualCap, func() bool { return primed }) {
		return PinStats{}, fmt.Errorf("priming read never completed")
	}

	var out PinStats
	var samples, reads []time.Duration
	completed := 0
	var start func()
	start = func() {
		if completed >= sessions {
			return
		}
		idx := completed
		t0 := sim.Now()
		var readLat time.Duration
		incDone, readDone, failed := false, false, false
		finish := func() {
			if !incDone || !readDone {
				return
			}
			completed++
			if failed {
				out.Errors++
			} else if idx >= warmup {
				samples = append(samples, sim.Now()-t0)
				reads = append(reads, readLat)
			}
			start()
		}
		backend.Inc(pin, key, func(err error) {
			if err != nil {
				failed = true
			}
			incDone = true
			finish()
		})
		// The read trails the write by a virtual beat so it snapshots a
		// state with the increment in flight — the read-after-write race.
		sim.After(100*time.Microsecond, func() {
			t1 := sim.Now()
			backend.Read(pin, key, func(_ int64, err error) {
				if err != nil {
					failed = true
				}
				readLat = sim.Now() - t1
				readDone = true
				finish()
			})
		})
	}
	start()
	if !sim.RunUntilDone(virtualCap, func() bool { return completed >= sessions }) {
		return PinStats{}, fmt.Errorf("stalled after %d/%d sessions", completed, sessions)
	}
	if len(samples) == 0 {
		return PinStats{}, fmt.Errorf("no successful sessions (%d errors)", out.Errors)
	}
	out.P50, out.ReadP50 = percentile(samples, 50), percentile(reads, 50)
	if c, ok := backend.(interface{ Counters() core.Counters }); ok {
		out.Counters = c.Counters()
	}
	return out, nil
}

// Workload is the closed loop MixedWorkload offers: Clients clients,
// pinned round-robin over the replicas, issue Ops ops between them,
// ReadFrac of them reads, over the counters c0..c<Keys-1> and, with Sets,
// a quarter of them over the or-sets or-set/0..or-set/<Keys-1>.
type Workload struct {
	Clients, Keys, Ops int
	ReadFrac           float64
	Sets               bool
	// CrashAfter > 0 crashes the last replica once that many ops have
	// completed (the paper's Figure 4).
	CrashAfter int
	// Intervals > 0 splits the measured window into that many equal spans
	// of virtual time, by op start, for MixedStats.Timeline.
	Intervals int
}

// MixedStats is the shared keyed-workload figure for one backend.
type MixedStats struct {
	Throughput   float64 // completed ops per virtual second
	ReadP50      time.Duration
	ReadP95      time.Duration
	ReadP99      time.Duration
	UpdateP50    time.Duration
	UpdateP95    time.Duration
	UpdateP99    time.Duration
	BytesPerOp   float64 // replica-wire payload bytes per completed op
	MaxLinkShare float64 // busiest directed link's share of wire bytes
	Completed    int
	Failed       int
	// ReadRTTs counts completed reads by the protocol round trips they
	// took, for the paper's protocol; nil for the other backends.
	ReadRTTs map[int]int
	Timeline []Interval
}

// Interval is one span of MixedStats.Timeline.
type Interval struct {
	Ops       int // completed ops that started in the span
	ReadP95   time.Duration
	UpdateP95 time.Duration
	Crash     bool // the replica crashed in this span
}

// sample is one completed op: its start, into the measured window, and
// its latency.
type sample struct{ at, lat time.Duration }

// MixedWorkload races one backend on a keyed closed-loop workload. A
// client whose op fails moves on to the next replica, as a client library
// would. Latencies, throughput, and wire bytes are all virtual-time and
// byte-counter based — deterministic for a given seed.
func MixedWorkload(spec Spec, n int, net Net, seed int64, w Workload) (MixedStats, error) {
	sim := NewSim(seed, net)
	backend, err := spec.New(sim, n)
	if err != nil {
		return MixedStats{}, err
	}
	crasher, canCrash := backend.(interface{ Crash(replica int) })
	if w.CrashAfter > 0 && !canCrash {
		return MixedStats{}, fmt.Errorf("%s: backend cannot crash a replica", spec.Name)
	}
	sim.RunUntil(settleTime)
	primed := 0
	for r := 0; r < n; r++ {
		backend.Read(r, "c0", func(int64, error) { primed++ })
	}
	if !sim.RunUntilDone(virtualCap, func() bool { return primed == n }) {
		return MixedStats{}, fmt.Errorf("%s: priming reads stalled", spec.Name)
	}
	rtts, countsRTTs := backend.(interface{ TakeReadRTTs() map[int]int })
	if countsRTTs {
		rtts.TakeReadRTTs() // the priming reads
	}

	base := sim.Fab.Stats()
	t0 := sim.Now()
	var reads, updates []sample
	completed, failed, done := 0, 0, 0
	crashedAt := time.Duration(-1)
	perClient := (w.Ops + w.Clients - 1) / w.Clients
	for c := 0; c < w.Clients; c++ {
		c := c
		rng := rand.New(rand.NewSource(seed + int64(c)*7919))
		replica := c % n
		issued := 0
		var next func()
		next = func() {
			if issued >= perClient {
				done++
				return
			}
			issued++
			t1 := sim.Now()
			isRead := rng.Float64() < w.ReadFrac
			isSet := w.Sets && rng.Intn(4) == 0
			j := rng.Intn(w.Keys)
			settle := func(err error, into *[]sample) {
				if err != nil {
					failed++
					replica = (replica + 1) % n
				} else {
					completed++
					*into = append(*into, sample{at: t1 - t0, lat: sim.Now() - t1})
					if completed == w.CrashAfter {
						crashedAt = sim.Now() - t0
						crasher.Crash(n - 1)
					}
				}
				next()
			}
			switch {
			case isRead && !isSet:
				backend.Read(replica, fmt.Sprintf("c%d", j), func(_ int64, err error) { settle(err, &reads) })
			case isRead && isSet:
				backend.Card(replica, fmt.Sprintf("or-set/%d", j), func(_ int64, err error) { settle(err, &reads) })
			case !isRead && !isSet:
				backend.Inc(replica, fmt.Sprintf("c%d", j), func(err error) { settle(err, &updates) })
			default:
				elem := fmt.Sprintf("e%d", rng.Intn(64))
				backend.AddElem(replica, fmt.Sprintf("or-set/%d", j), elem, func(err error) { settle(err, &updates) })
			}
		}
		next()
	}
	if !sim.RunUntilDone(virtualCap, func() bool { return done == w.Clients }) {
		return MixedStats{}, fmt.Errorf("%s: workload stalled (%d/%d clients done)", spec.Name, done, w.Clients)
	}
	elapsed := sim.Now() - t0
	if elapsed <= 0 || completed == 0 {
		return MixedStats{}, fmt.Errorf("%s: empty measurement window", spec.Name)
	}
	stats := sim.Fab.Stats()
	bytesDelta := float64(stats.BytesSent - base.BytesSent)
	readLats, updateLats := latencies(reads), latencies(updates)
	out := MixedStats{
		Throughput:   float64(completed) / elapsed.Seconds(),
		ReadP50:      percentile(readLats, 50),
		ReadP95:      percentile(readLats, 95),
		ReadP99:      percentile(readLats, 99),
		UpdateP50:    percentile(updateLats, 50),
		UpdateP95:    percentile(updateLats, 95),
		UpdateP99:    percentile(updateLats, 99),
		BytesPerOp:   bytesDelta / float64(completed),
		MaxLinkShare: maxLinkShare(stats.Links, base.Links, bytesDelta),
		Completed:    completed,
		Failed:       failed,
	}
	if countsRTTs {
		out.ReadRTTs = rtts.TakeReadRTTs()
	}
	if w.Intervals > 0 {
		span := func(at time.Duration) int {
			return min(int(int64(at)*int64(w.Intervals)/int64(elapsed)), w.Intervals-1)
		}
		rd := make([][]sample, w.Intervals)
		up := make([][]sample, w.Intervals)
		for _, s := range reads {
			rd[span(s.at)] = append(rd[span(s.at)], s)
		}
		for _, s := range updates {
			up[span(s.at)] = append(up[span(s.at)], s)
		}
		out.Timeline = make([]Interval, w.Intervals)
		for i := range out.Timeline {
			out.Timeline[i] = Interval{
				Ops:       len(rd[i]) + len(up[i]),
				ReadP95:   percentile(latencies(rd[i]), 95),
				UpdateP95: percentile(latencies(up[i]), 95),
				Crash:     crashedAt >= 0 && span(crashedAt) == i,
			}
		}
	}
	return out, nil
}

// latencies returns the latencies of samples.
func latencies(samples []sample) []time.Duration {
	out := make([]time.Duration, len(samples))
	for i, s := range samples {
		out[i] = s.lat
	}
	return out
}

// maxLinkShare finds the busiest directed link's share of measured bytes —
// a leader-concentration signature: log-based protocols funnel traffic
// through the leader's links, the leaderless protocol spreads it.
func maxLinkShare(end, base map[transport.Link]transport.LinkStats, total float64) float64 {
	if total <= 0 {
		return 0
	}
	var max float64
	for l, s := range end {
		d := float64(s.BytesSent - base[l].BytesSent)
		if d > max {
			max = d
		}
	}
	return max / total
}

// percentile returns the p-th percentile of samples (nearest-rank).
func percentile(samples []time.Duration, p int) time.Duration {
	if len(samples) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), samples...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	idx := len(s) * p / 100
	if idx >= len(s) {
		idx = len(s) - 1
	}
	return s[idx]
}
