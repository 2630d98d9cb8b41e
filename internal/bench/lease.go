package bench

import (
	"fmt"
	"io"
	"time"

	"crdtsmr/internal/core"
	"crdtsmr/internal/shootout"
)

// FigureLease measures the round-lease query fast path (docs/PROTOCOL.md
// §5) on the hot-key read-after-write session (shootout.Session) at pin 0:
// the client fires an increment and reads the same key 100 µs later, while
// the update's MERGEs are still in flight. Without the lease, the read's
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
	net := s.roundTripNet()
	sessions := scaleCount(s.Duration, 2500*time.Microsecond, 40, 400)
	warmup := sessions / 8

	fig := &FigureJSON{
		Schema: FigureSchema,
		Figure: "lease",
		GitSHA: buildGitSHA(),
		Params: map[string]any{
			"workload":     "read-after-write sessions at pin 0, hot key, virtual time",
			"replicas":     replicaSweep,
			"sessions":     sessions,
			"min_delay_us": net.MinDelay.Microseconds(),
			"max_delay_us": net.MaxDelay.Microseconds(),
			"seed":         s.Seed,
		},
	}
	off := FigureSeries{Name: "read p50, lease off", Unit: "us"}
	on := FigureSeries{Name: "read p50, lease on", Unit: "us"}
	hits := FigureSeries{Name: "lease hits", Unit: "count"}
	fallbacks := FigureSeries{Name: "lease fallbacks", Unit: "count"}

	fmt.Fprintf(w, "Figure lease: read-after-write p50 at pin 0 (%s–%s hop delay, virtual time, seed %d)\n",
		net.MinDelay, net.MaxDelay, s.Seed)
	fmt.Fprintf(w, "  %-10s %14s %14s %12s %10s %10s\n",
		"replicas", "lease off", "lease on", "reduction", "hits", "fallbacks")

	for _, reps := range replicaSweep {
		var runs [2]shootout.PinStats
		for i, lease := range []bool{false, true} {
			opts := core.DefaultOptions()
			opts.Lease = lease
			st, err := shootout.Session(shootout.CRDTSpec(opts, 0), reps, net, s.Seed, 0, sessions, warmup)
			if err != nil {
				return nil, fmt.Errorf("figure lease: %d replicas: %w", reps, err)
			}
			runs[i] = st
		}
		p50Off, p50On, leased := runs[0].ReadP50, runs[1].ReadP50, runs[1].Counters
		reduction := 1 - float64(p50On)/float64(p50Off)
		fmt.Fprintf(w, "  %-10d %14s %14s %11.0f%% %10d %10d\n",
			reps, fmtDur(p50Off), fmtDur(p50On), reduction*100, leased.LeaseHits, leased.LeaseFallbacks)

		x := float64(reps)
		off.X, off.Y = append(off.X, x), append(off.Y, float64(p50Off.Microseconds()))
		on.X, on.Y = append(on.X, x), append(on.Y, float64(p50On.Microseconds()))
		hits.X, hits.Y = append(hits.X, x), append(hits.Y, float64(leased.LeaseHits))
		fallbacks.X, fallbacks.Y = append(fallbacks.X, x), append(fallbacks.Y, float64(leased.LeaseFallbacks))
	}
	fig.Series = []FigureSeries{off, on, hits, fallbacks}
	return fig, nil
}
