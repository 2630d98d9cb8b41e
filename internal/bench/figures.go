package bench

import (
	"fmt"
	"io"
	"time"
)

// Scale shrinks or grows the experiments relative to the paper's setup so
// the full evaluation can run anywhere from a CI job to a long unattended
// sweep.
type Scale struct {
	Duration time.Duration // per measurement (paper: 10 min)
	Warmup   time.Duration
	Clients  []int         // client sweep (paper: 1..4096)
	Batch    time.Duration // batching window (paper: 5 ms)
	Replicas int           // paper: 3
	Net      NetProfile
}

// DefaultScale finishes in a few minutes and preserves the figures' shape.
func DefaultScale() Scale {
	return Scale{
		Duration: 2 * time.Second,
		Warmup:   300 * time.Millisecond,
		Clients:  []int{1, 8, 64, 256},
		Batch:    5 * time.Millisecond,
		Replicas: 3,
		Net:      LANProfile(),
	}
}

// Figures is the one table of what cmd/bench can regenerate, in the order
// `-figure all` runs them. A figure belongs here only if no BENCHMARK.json
// workload or per-layer probe answers its question (README, "Benchmarks").
// Run prints the figure's table to w; a non-nil record is what -out
// persists as BENCH_<name>.json.
var Figures = []struct {
	Name     string
	Question string
	Run      func(w io.Writer, s Scale) (*FigureJSON, error)
}{
	{"1", "paper Fig. 1: throughput vs clients and read mix, against Raft and Multi-Paxos", func(w io.Writer, s Scale) (*FigureJSON, error) {
		return nil, Figure1(w, s)
	}},
	{"2", "paper Fig. 2: p95 read/update latency vs clients at 10% updates, same four systems", func(w io.Writer, s Scale) (*FigureJSON, error) {
		return nil, Figure2(w, s)
	}},
	{"3", "paper Fig. 3: share of reads done within k round trips, with and without batching", func(w io.Writer, s Scale) (*FigureJSON, error) {
		// The -clients sweep capped at 512; Figure3 falls back to its own
		// sweep when none is left.
		var counts []int
		for _, n := range s.Clients {
			if n <= 512 {
				counts = append(counts, n)
			}
		}
		_, err := Figure3(w, s, counts)
		return nil, err
	}},
	{"4", "paper Fig. 4: p95 latency timeline across a replica crash (no leader, no outage)", func(w io.Writer, s Scale) (*FigureJSON, error) {
		return nil, Figure4(w, s, 64)
	}},
	{"lease", "how much read-after-write latency the round lease saves as the quorum widens", FigureLease},
	{"protocols", "this protocol vs Multi-Paxos, Raft and lattice agreement on one keyed workload, virtual time", FigureProtocols},
	{"members", "does an online membership change (grow, then shrink) ever close the availability window", func(w io.Writer, s Scale) (*FigureJSON, error) {
		return FigureMembers(w, s, 64)
	}},
}

// FigureNames lists the names of Figures, in table order.
func FigureNames() []string {
	names := make([]string, len(Figures))
	for i, f := range Figures {
		names[i] = f.Name
	}
	return names
}

// systemSpec names a system constructor for the sweeps.
type systemSpec struct {
	name  string
	build func() (System, error)
}

func (s Scale) systems() []systemSpec {
	return []systemSpec{
		{"CRDT Paxos", func() (System, error) { return NewCRDTSystem(s.Replicas, CRDTOpts{}, s.Net) }},
		{"CRDT Paxos w/batching", func() (System, error) { return NewCRDTSystem(s.Replicas, CRDTOpts{Batch: s.Batch}, s.Net) }},
		{"Raft", func() (System, error) { return NewRaftSystem(s.Replicas, s.Net) }},
		{"Multi-Paxos", func() (System, error) { return NewPaxosSystem(s.Replicas, s.Net) }},
	}
}

// Figure1 regenerates the throughput comparison (paper Figure 1): median
// throughput vs. number of clients for five read mixes across the four
// systems on three replicas.
func Figure1(w io.Writer, s Scale) error {
	readMixes := []float64{1.00, 0.95, 0.90, 0.50, 0.00}
	fmt.Fprintf(w, "Figure 1: throughput (requests/s, median of %s intervals) on %d replicas\n", time.Second, s.Replicas)
	for _, mix := range readMixes {
		fmt.Fprintf(w, "\n  %.0f%% reads\n", mix*100)
		fmt.Fprintf(w, "  %-24s", "clients")
		for _, c := range s.Clients {
			fmt.Fprintf(w, "%12d", c)
		}
		fmt.Fprintln(w)
		for _, spec := range s.systems() {
			fmt.Fprintf(w, "  %-24s", spec.name)
			for _, clients := range s.Clients {
				sys, err := spec.build()
				if err != nil {
					return err
				}
				res := Run(sys, RunConfig{
					Clients:      clients,
					ReadFraction: mix,
					Duration:     s.Duration,
					Warmup:       s.Warmup,
				})
				sys.Close()
				fmt.Fprintf(w, "%12.0f", res.Throughput)
			}
			fmt.Fprintln(w)
		}
	}
	return nil
}

// Figure2 regenerates the 95th-percentile latency comparison (paper
// Figure 2): read and update p95 latency vs. number of clients with 10 %
// updates.
func Figure2(w io.Writer, s Scale) error {
	fmt.Fprintf(w, "Figure 2: 95th percentile latency with 10%% updates on %d replicas\n", s.Replicas)
	type row struct {
		name    string
		reads   []time.Duration
		updates []time.Duration
	}
	var rows []row
	for _, spec := range s.systems() {
		r := row{name: spec.name}
		for _, clients := range s.Clients {
			sys, err := spec.build()
			if err != nil {
				return err
			}
			res := Run(sys, RunConfig{
				Clients:      clients,
				ReadFraction: 0.90,
				Duration:     s.Duration,
				Warmup:       s.Warmup,
			})
			sys.Close()
			r.reads = append(r.reads, res.ReadLat.P95)
			r.updates = append(r.updates, res.UpdateLat.P95)
		}
		rows = append(rows, r)
	}
	for _, part := range []string{"read", "update"} {
		fmt.Fprintf(w, "\n  %s p95 latency\n", part)
		fmt.Fprintf(w, "  %-24s", "clients")
		for _, c := range s.Clients {
			fmt.Fprintf(w, "%12d", c)
		}
		fmt.Fprintln(w)
		for _, r := range rows {
			fmt.Fprintf(w, "  %-24s", r.name)
			vals := r.reads
			if part == "update" {
				vals = r.updates
			}
			for _, v := range vals {
				fmt.Fprintf(w, "%12s", fmtDur(v))
			}
			fmt.Fprintln(w)
		}
	}
	return nil
}

// Figure3 regenerates the read round-trip distribution (paper Figure 3):
// the cumulative percentage of reads processed within k round trips, with
// and without batching, for several client counts at 10 % updates. The
// paper's headline: with 5 ms batches, more than 97 % of reads finish
// within two round trips.
func Figure3(w io.Writer, s Scale, clientCounts []int) (headline float64, err error) {
	if len(clientCounts) == 0 {
		clientCounts = []int{16, 32, 64, 128}
	}
	const maxRTT = 15
	fmt.Fprintf(w, "Figure 3: cumulative %% of reads by round trips (10%% updates, %d replicas)\n", s.Replicas)
	for _, batch := range []time.Duration{0, s.Batch} {
		label := "without batching"
		if batch > 0 {
			label = fmt.Sprintf("with %s batching", batch)
		}
		fmt.Fprintf(w, "\n  %s\n", label)
		fmt.Fprintf(w, "  %-12s", "round trips")
		for k := 1; k <= 8; k++ {
			fmt.Fprintf(w, "%9d", k)
		}
		fmt.Fprintln(w)
		for _, clients := range clientCounts {
			sys, err := NewCRDTSystem(s.Replicas, CRDTOpts{Batch: batch}, s.Net)
			if err != nil {
				return 0, err
			}
			res := Run(sys, RunConfig{
				Clients:      clients,
				ReadFraction: 0.90,
				Duration:     s.Duration,
				Warmup:       s.Warmup,
			})
			sys.Close()
			cdf := res.ReadRTTs.CDF(maxRTT)
			fmt.Fprintf(w, "  %4d clients", clients)
			for k := 0; k < 8; k++ {
				fmt.Fprintf(w, "%8.1f%%", cdf[k])
			}
			fmt.Fprintln(w)
			// The headline is the worst batched row across client counts.
			if batch > 0 && (headline == 0 || cdf[1] < headline) {
				headline = cdf[1]
			}
		}
	}
	fmt.Fprintf(w, "\n  headline (batching, ≤2 RTTs, worst client count): %.1f%% (paper: >97%%)\n", headline)
	return headline, nil
}

// Figure4 regenerates the node-failure timeline (paper Figure 4): p95 read
// and update latency per interval with one replica crashing mid-run, 64
// clients, 10 % updates, with and without batching. The paper's point:
// no leader means no unavailability window, only a modest latency bump.
func Figure4(w io.Writer, s Scale, clients int) error {
	if clients <= 0 {
		clients = 64
	}
	fmt.Fprintf(w, "Figure 4: p95 latency per interval across a node failure (%d clients, 10%% updates)\n", clients)
	for _, batch := range []time.Duration{0, s.Batch} {
		label := "without batching"
		if batch > 0 {
			label = fmt.Sprintf("with %s batching", batch)
		}
		sys, err := NewCRDTSystem(s.Replicas, CRDTOpts{Batch: batch}, s.Net)
		if err != nil {
			return err
		}
		duration := 4 * s.Duration // timeline needs several intervals
		res := Run(sys, RunConfig{
			Clients:      clients,
			ReadFraction: 0.90,
			Duration:     duration,
			Warmup:       s.Warmup,
			Interval:     duration / 8,
			FailAfter:    duration / 2,
			FailReplica:  2,
		})
		sys.Close()
		fmt.Fprintf(w, "\n  %s (replica n3 fails at interval %d)\n", label, 4)
		fmt.Fprintf(w, "  %-10s %14s %14s %10s\n", "interval", "read p95", "update p95", "ops")
		timeline := res.Timeline
		for len(timeline) > 0 && timeline[len(timeline)-1].Ops == 0 {
			timeline = timeline[:len(timeline)-1] // trailing partial interval
		}
		for _, iv := range timeline {
			marker := ""
			if iv.Index == 4 {
				marker = "  <- failure"
			}
			fmt.Fprintf(w, "  %-10d %14s %14s %10d%s\n", iv.Index, fmtDur(iv.ReadP95), fmtDur(iv.UpdateP95), iv.Ops, marker)
		}
	}
	return nil
}
