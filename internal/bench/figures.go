package bench

import (
	"fmt"
	"io"
	"time"

	"crdtsmr/internal/core"
	"crdtsmr/internal/shootout"
	"crdtsmr/internal/transport"
)

// Scale shrinks or grows the experiments relative to the paper's setup.
// Every figure runs in virtual time on a transport.Fabric, so Duration is
// not a wall-clock budget: it sizes each data point's op count.
type Scale struct {
	Duration time.Duration // sizes each data point (paper: 10 min)
	Clients  []int         // client sweep (paper: 1..4096)
	Batch    time.Duration // batching window (paper: 5 ms)
	Replicas int           // paper: 3
	Net      transport.Net
	Seed     int64
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
	{"1", "paper Fig. 1: throughput vs clients and read mix, against Raft and Multi-Paxos", noRecord(figure1)},
	{"2", "paper Fig. 2: p95 read/update latency vs clients at 10% updates, same four systems", noRecord(figure2)},
	{"3", "paper Fig. 3: share of reads done within k round trips, with and without batching", noRecord(figure3)},
	{"4", "paper Fig. 4: p95 latency timeline across a replica crash (no leader, no outage)", noRecord(figure4)},
	{"lease", "how much read-after-write latency the round lease saves as the quorum widens", FigureLease},
	{"protocols", "this protocol vs Multi-Paxos, Raft and lattice agreement on one keyed workload", FigureProtocols},
}

// FigureNames lists the names of Figures, in table order.
func FigureNames() []string {
	names := make([]string, len(Figures))
	for i, f := range Figures {
		names[i] = f.Name
	}
	return names
}

func noRecord(fig func(io.Writer, Scale) error) func(io.Writer, Scale) (*FigureJSON, error) {
	return func(w io.Writer, s Scale) (*FigureJSON, error) { return nil, fig(w, s) }
}

// counter is one data point of Figures 1–4: the paper's single replicated
// counter, driven by the given number of closed-loop clients, readFrac of
// whose ops are reads. One op per 250 µs of Duration, at least 16 per
// client.
func (s Scale) counter(clients int, readFrac float64) shootout.Workload {
	ops := max(scaleCount(s.Duration, 250*time.Microsecond, 400, 40000), 16*clients)
	return shootout.Workload{Clients: clients, Keys: 1, Ops: ops, ReadFrac: readFrac}
}

func (s Scale) run(spec shootout.Spec, w shootout.Workload) (shootout.MixedStats, error) {
	return shootout.MixedWorkload(spec, s.Replicas, s.Net, s.Seed, w)
}

// roundTripNet is s.Net floored at LAN's 0.5–4 ms hop, for the figures
// that compare protocol round-trip counts: the hops must dominate, and
// their wide jitter is what puts replication traffic in flight while a
// read runs.
func (s Scale) roundTripNet() transport.Net {
	if s.Net.MaxDelay < 500*time.Microsecond {
		return transport.LAN()
	}
	return s.Net
}

// system is one row of Figures 1 and 2.
type system struct {
	name string
	spec shootout.Spec
}

func (s Scale) systems() ([]system, error) {
	raft, err := shootout.SpecNamed("raft")
	if err != nil {
		return nil, err
	}
	paxos, err := shootout.SpecNamed("paxos")
	if err != nil {
		return nil, err
	}
	return []system{
		{"CRDT Paxos", shootout.CRDTSpec(core.DefaultOptions(), 0)},
		{"CRDT Paxos w/batching", shootout.CRDTSpec(core.DefaultOptions(), s.Batch)},
		{"Raft", raft},
		{"Multi-Paxos", paxos},
	}, nil
}

// figure1 regenerates the throughput comparison (paper Figure 1):
// throughput vs. number of clients for five read mixes across the four
// systems.
func figure1(w io.Writer, s Scale) error {
	systems, err := s.systems()
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "Figure 1: throughput (ops per virtual second) on %d replicas, seed %d\n", s.Replicas, s.Seed)
	fmt.Fprintln(w, "  virtual time has no CPU model, so throughput grows with clients; served-path CPU throughput is benchmark/'s kv-read-heavy")
	for _, mix := range []float64{1.00, 0.95, 0.90, 0.50, 0.00} {
		fmt.Fprintf(w, "\n  %.0f%% reads\n", mix*100)
		fmt.Fprintf(w, "  %-24s", "clients")
		for _, c := range s.Clients {
			fmt.Fprintf(w, "%12d", c)
		}
		fmt.Fprintln(w)
		for _, sys := range systems {
			fmt.Fprintf(w, "  %-24s", sys.name)
			for _, clients := range s.Clients {
				st, err := s.run(sys.spec, s.counter(clients, mix))
				if err != nil {
					return fmt.Errorf("figure 1: %s: %w", sys.name, err)
				}
				fmt.Fprintf(w, "%12.0f", st.Throughput)
			}
			fmt.Fprintln(w)
		}
	}
	return nil
}

// figure2 regenerates the 95th-percentile latency comparison (paper
// Figure 2): read and update p95 latency vs. number of clients with 10 %
// updates.
func figure2(w io.Writer, s Scale) error {
	systems, err := s.systems()
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "Figure 2: 95th percentile latency with 10%% updates on %d replicas, virtual time, seed %d\n", s.Replicas, s.Seed)
	fmt.Fprintln(w, "  virtual time has no CPU model: latency is message hops and protocol round trips only")
	type row struct {
		name    string
		reads   []time.Duration
		updates []time.Duration
	}
	var rows []row
	for _, sys := range systems {
		r := row{name: sys.name}
		for _, clients := range s.Clients {
			st, err := s.run(sys.spec, s.counter(clients, 0.90))
			if err != nil {
				return fmt.Errorf("figure 2: %s: %w", sys.name, err)
			}
			r.reads = append(r.reads, st.ReadP95)
			r.updates = append(r.updates, st.UpdateP95)
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

// figure3 regenerates the read round-trip distribution (paper Figure 3):
// the cumulative percentage of reads processed within k round trips, with
// and without batching, for the -clients sweep capped at 512 clients (or
// 16–128 when none is left) at 10 % updates. The paper's headline: with
// 5 ms batches, more than 97 % of reads finish within two round trips.
func figure3(w io.Writer, s Scale) error {
	var counts []int
	for _, n := range s.Clients {
		if n <= 512 {
			counts = append(counts, n)
		}
	}
	if len(counts) == 0 {
		counts = []int{16, 32, 64, 128}
	}
	fmt.Fprintf(w, "Figure 3: cumulative %% of reads by round trips (10%% updates, %d replicas, virtual time, seed %d)\n", s.Replicas, s.Seed)
	fmt.Fprintln(w, "  virtual time has no scheduler jitter, so batch windows never overlap and a batched read takes one round trip")
	headline := 100.0
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
		for _, clients := range counts {
			st, err := s.run(shootout.CRDTSpec(core.DefaultOptions(), batch), s.counter(clients, 0.90))
			if err != nil {
				return fmt.Errorf("figure 3: %w", err)
			}
			total := 0
			for _, c := range st.ReadRTTs {
				total += c
			}
			if total == 0 {
				return fmt.Errorf("figure 3: %d clients completed no reads", clients)
			}
			fmt.Fprintf(w, "  %4d clients", clients)
			cum := 0
			for k := 1; k <= 8; k++ {
				cum += st.ReadRTTs[k]
				pct := 100 * float64(cum) / float64(total)
				fmt.Fprintf(w, "%8.1f%%", pct)
				// The headline is the worst batched row across client counts.
				if k == 2 && batch > 0 {
					headline = min(headline, pct)
				}
			}
			fmt.Fprintln(w)
		}
	}
	fmt.Fprintf(w, "\n  headline (batching, ≤2 RTTs, worst client count): %.1f%% (paper: >97%%)\n", headline)
	return nil
}

// figure4 regenerates the node-failure timeline (paper Figure 4): p95 read
// and update latency per interval with the last replica crashing halfway
// through the run, 64 clients, 10 % updates, with and without batching.
// The paper's point: no leader means no unavailability window, only a
// modest latency bump.
func figure4(w io.Writer, s Scale) error {
	const clients, intervals = 64, 8
	fmt.Fprintf(w, "Figure 4: p95 latency per interval across a node failure (%d clients, 10%% updates, virtual time, seed %d)\n", clients, s.Seed)
	fmt.Fprintln(w, "  virtual time has no CPU model; ops open at the crashed replica fail and their clients move to the next one")
	for _, batch := range []time.Duration{0, s.Batch} {
		label := "without batching"
		if batch > 0 {
			label = fmt.Sprintf("with %s batching", batch)
		}
		wl := s.counter(clients, 0.90)
		wl.Ops *= 4 // the timeline needs several intervals
		wl.CrashAfter = wl.Ops / 2
		wl.Intervals = intervals
		st, err := s.run(shootout.CRDTSpec(core.DefaultOptions(), batch), wl)
		if err != nil {
			return fmt.Errorf("figure 4: %w", err)
		}
		crashed := -1
		for i, iv := range st.Timeline {
			if iv.Crash {
				crashed = i
			}
		}
		fmt.Fprintf(w, "\n  %s (replica n%d fails at interval %d)\n", label, s.Replicas, crashed)
		fmt.Fprintf(w, "  %-10s %14s %14s %10s\n", "interval", "read p95", "update p95", "ops")
		for i, iv := range st.Timeline {
			marker := ""
			if iv.Crash {
				marker = "  <- failure"
			}
			fmt.Fprintf(w, "  %-10d %14s %14s %10d%s\n", i, fmtDur(iv.ReadP95), fmtDur(iv.UpdateP95), iv.Ops, marker)
		}
	}
	return nil
}

// fmtDur renders a duration in milliseconds with two decimals.
func fmtDur(d time.Duration) string {
	return fmt.Sprintf("%.2fms", float64(d.Microseconds())/1000)
}
