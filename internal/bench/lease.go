package bench

import (
	"context"
	"fmt"
	"io"
	"time"

	"crdtsmr/internal/core"
)

// leaseNetFloor is the minimum emulated per-message delay for the lease
// figure. The fast path saves protocol round trips, so the measurement
// must be latency-bound — with near-zero delays (or on a single-CPU box)
// scheduler noise would swamp the RTT saving. Profiles below the floor
// are replaced with a wide-jitter WAN-ish hop, whose reordering is what
// puts replication traffic in flight during reads.
const leaseNetFloor = 500 * time.Microsecond

// primeRead runs one synchronous read at replica 0 before the measured
// window opens. A lease only installs when a read's quorum agrees on the
// round, which never happens while traffic keeps rounds in motion;
// installed in an idle moment it self-sustains, because leased reads do
// not mint rounds. The lease-off run gets the same priming read so the
// two workloads stay identical.
func primeRead(sys *CRDTSystem) error {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	_, _, err := sys.Client(0).Read(ctx)
	return err
}

// FigureLease measures the round-lease query fast path (docs/PROTOCOL.md
// §5) on a read-after-write session at one pinned proposer: the client
// fires an increment and immediately reads the same hot key while the
// update's MERGEs are still in flight. Without the lease, the read's
// PREPARE races every MERGE — any quorum member that has not merged yet
// breaks the quorum's state agreement and the read pays the vote phase
// (2+ RTTs), more often as the quorum widens, and the update's round
// clobber can deny the vote on top. The leased read skips PREPARE and
// tolerates laggards — the acceptor's coverage check passes because the
// proposal subsumes whatever the acceptor is missing — so it stays at
// one round trip regardless of cluster size.
//
// The sweep is over replica count: the off-path penalty grows with the
// quorum, the leased path does not.
func FigureLease(w io.Writer, s Scale) (*FigureJSON, error) {
	replicaSweep := []int{3, 5, 7}
	net := s.Net
	if net.MaxDelay < leaseNetFloor {
		net = NetProfile{MinDelay: 500 * time.Microsecond, MaxDelay: 4 * time.Millisecond, Seed: net.Seed}
	}

	fig := &FigureJSON{
		Schema: FigureSchema,
		Figure: "lease",
		GitSHA: buildGitSHA(),
		Params: map[string]any{
			"workload":     "read-after-async-write, one pinned proposer, hot key",
			"replicas":     replicaSweep,
			"duration_ms":  s.Duration.Milliseconds(),
			"min_delay_us": net.MinDelay.Microseconds(),
			"max_delay_us": net.MaxDelay.Microseconds(),
			"seed":         net.Seed,
		},
	}
	off := FigureSeries{Name: "read p50, lease off", Unit: "us"}
	on := FigureSeries{Name: "read p50, lease on", Unit: "us"}
	hits := FigureSeries{Name: "lease hits", Unit: "count"}
	fallbacks := FigureSeries{Name: "lease fallbacks", Unit: "count"}

	fmt.Fprintf(w, "Figure lease: read-after-write p50 at one pinned proposer (%s–%s hop delay)\n",
		net.MinDelay, net.MaxDelay)
	fmt.Fprintf(w, "  %-10s %14s %14s %12s %10s %10s\n",
		"replicas", "lease off", "lease on", "reduction", "hits", "fallbacks")

	for _, reps := range replicaSweep {
		var p50 [2]time.Duration
		var counters [2]core.Counters
		for i, lease := range []bool{false, true} {
			opts := core.DefaultOptions()
			opts.Lease = lease
			sys, err := NewCRDTSystem(reps, CRDTOpts{Protocol: &opts}, net)
			if err != nil {
				return nil, err
			}
			if err := primeRead(sys); err != nil {
				sys.Close()
				return nil, err
			}
			stats, err := runReadAfterWrite(sys, s.Duration, s.Warmup)
			if err != nil {
				sys.Close()
				return nil, err
			}
			p50[i] = stats.P50
			counters[i] = sys.Counters()
			sys.Close()
		}
		reduction := 0.0
		if p50[0] > 0 {
			reduction = 1 - float64(p50[1])/float64(p50[0])
		}
		fmt.Fprintf(w, "  %-10d %14s %14s %11.0f%% %10d %10d\n",
			reps, fmtDur(p50[0]), fmtDur(p50[1]), reduction*100,
			counters[1].LeaseHits, counters[1].LeaseFallbacks)

		x := float64(reps)
		off.X, off.Y = append(off.X, x), append(off.Y, float64(p50[0].Microseconds()))
		on.X, on.Y = append(on.X, x), append(on.Y, float64(p50[1].Microseconds()))
		hits.X, hits.Y = append(hits.X, x), append(hits.Y, float64(counters[1].LeaseHits))
		fallbacks.X, fallbacks.Y = append(fallbacks.X, x), append(fallbacks.Y, float64(counters[1].LeaseFallbacks))
	}
	fig.Series = []FigureSeries{off, on, hits, fallbacks}
	return fig, nil
}

// runReadAfterWrite drives the session loop: submit an increment
// asynchronously, immediately read the key, wait for both, repeat. Read
// latencies inside the warmup are discarded.
func runReadAfterWrite(sys *CRDTSystem, duration, warmup time.Duration) (LatencyStats, error) {
	cl := sys.Pinned(0).Client(0)
	ctx, cancel := context.WithTimeout(context.Background(), warmup+duration+10*time.Second)
	defer cancel()
	deadline := time.Now().Add(warmup + duration)
	measureFrom := time.Now().Add(warmup)

	var samples []time.Duration
	for time.Now().Before(deadline) {
		upDone := make(chan error, 1)
		go func() { upDone <- cl.Inc(ctx) }()
		// A brief stagger orders the two submissions at the node: the read
		// must snapshot a state that includes the increment, or it would
		// measure a plain read instead of a read-after-write.
		time.Sleep(100 * time.Microsecond)
		t0 := time.Now()
		_, _, err := cl.Read(ctx)
		lat := time.Since(t0)
		if uerr := <-upDone; uerr != nil {
			return LatencyStats{}, uerr
		}
		if err != nil {
			return LatencyStats{}, err
		}
		if t0.After(measureFrom) {
			samples = append(samples, lat)
		}
	}
	if len(samples) == 0 {
		return LatencyStats{}, fmt.Errorf("measurement window produced no reads")
	}
	return summarize(samples), nil
}
