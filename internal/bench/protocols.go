package bench

import (
	"fmt"
	"io"
	"time"

	"crdtsmr/internal/shootout"
)

// FigureProtocols races the paper's protocol against Multi-Paxos RSM,
// Raft RSM, and generalized lattice agreement on one shared keyed
// counter/or-set workload over one latency-emulated fabric
// (internal/shootout). Two phases:
//
//   - hot-key read-after-write sessions, client pinned at each replica in
//     turn: the log-free protocol completes the session in quorum round
//     trips from any replica, the log-based RSMs pay leader forwarding at
//     followers. The median-across-replicas session p50 is the guarded
//     headline number.
//   - a mixed keyed workload (closed-loop clients, 90% reads): throughput,
//     read/update p50/p99, replica-wire bytes per op, and the busiest
//     link's byte share (leader concentration).
//
// Everything runs in virtual time, so every number is a deterministic
// function of the seed and the assertions CI makes over the output are
// latency-bound, not CPU-bound.
func FigureProtocols(w io.Writer, s Scale) (*FigureJSON, error) {
	net := s.roundTripNet()
	seed := s.Seed
	replicas := s.Replicas
	if replicas <= 0 {
		replicas = 3
	}

	// Work amounts derive from Scale.Duration so -duration scales the
	// figure, but they are op counts, not wall time: the run is virtual.
	sessions := scaleCount(s.Duration, 25*time.Millisecond, 16, 400)
	warmup := sessions / 8
	mixedOps := scaleCount(s.Duration, time.Millisecond, 240, 8000)
	const mixedClients, mixedKeys, readFrac = 6, 4, 0.9

	specs := shootout.Specs()
	names := make([]string, len(specs))
	for i, sp := range specs {
		names[i] = sp.Name
	}
	fig := &FigureJSON{
		Schema: FigureSchema,
		Figure: "protocols",
		GitSHA: buildGitSHA(),
		Params: map[string]any{
			"protocols":     names,
			"replicas":      replicas,
			"seed":          seed,
			"min_delay_us":  net.MinDelay.Microseconds(),
			"max_delay_us":  net.MaxDelay.Microseconds(),
			"sessions":      sessions,
			"mixed_ops":     mixedOps,
			"mixed_clients": mixedClients,
			"mixed_keys":    mixedKeys,
			"read_frac":     readFrac,
			"workload":      "phase A: hot-key read-after-write sessions per pinned replica; phase B: mixed keyed counter/or-set ops",
		},
	}
	series := map[string]*FigureSeries{
		"session p50 median": {Name: "session p50 median", Unit: "us"},
		"session p50 worst":  {Name: "session p50 worst", Unit: "us"},
		"throughput":         {Name: "throughput", Unit: "ops/s"},
		"read p50":           {Name: "read p50", Unit: "us"},
		"read p99":           {Name: "read p99", Unit: "us"},
		"update p50":         {Name: "update p50", Unit: "us"},
		"update p99":         {Name: "update p99", Unit: "us"},
		"bytes per op":       {Name: "bytes per op", Unit: "B"},
		"max link share":     {Name: "max link share", Unit: "frac"},
	}
	add := func(name string, x int, y float64) {
		sr := series[name]
		sr.X = append(sr.X, float64(x))
		sr.Y = append(sr.Y, y)
	}

	fmt.Fprintf(w, "Figure protocols: %d replicas, %s–%s hop delay, virtual time (seed %d)\n",
		replicas, net.MinDelay, net.MaxDelay, seed)
	fmt.Fprintf(w, "  %-16s %12s %12s %12s %10s %10s %10s %10s %10s %8s\n",
		"protocol", "sess p50 med", "sess p50 max", "ops/s", "rd p50", "rd p99", "up p50", "up p99", "B/op", "link%")

	for i, sp := range specs {
		sess, err := shootout.ReadAfterWrite(sp, replicas, net, seed, sessions, warmup)
		if err != nil {
			return nil, fmt.Errorf("figure protocols: %w", err)
		}
		worst := sess.PerReplica[0]
		for _, d := range sess.PerReplica {
			if d > worst {
				worst = d
			}
		}
		mx, err := shootout.MixedWorkload(sp, replicas, net, seed, shootout.Workload{
			Clients: mixedClients, Keys: mixedKeys, Ops: mixedOps, ReadFrac: readFrac, Sets: true,
		})
		if err != nil {
			return nil, fmt.Errorf("figure protocols: %w", err)
		}
		add("session p50 median", i, float64(sess.Median.Microseconds()))
		add("session p50 worst", i, float64(worst.Microseconds()))
		add("throughput", i, mx.Throughput)
		add("read p50", i, float64(mx.ReadP50.Microseconds()))
		add("read p99", i, float64(mx.ReadP99.Microseconds()))
		add("update p50", i, float64(mx.UpdateP50.Microseconds()))
		add("update p99", i, float64(mx.UpdateP99.Microseconds()))
		add("bytes per op", i, mx.BytesPerOp)
		add("max link share", i, mx.MaxLinkShare)
		fmt.Fprintf(w, "  %-16s %12s %12s %12.0f %10s %10s %10s %10s %10.0f %7.0f%%\n",
			sp.Name, fmtDur(sess.Median), fmtDur(worst), mx.Throughput,
			fmtDur(mx.ReadP50), fmtDur(mx.ReadP99), fmtDur(mx.UpdateP50), fmtDur(mx.UpdateP99),
			mx.BytesPerOp, mx.MaxLinkShare*100)
	}

	order := []string{"session p50 median", "session p50 worst", "throughput",
		"read p50", "read p99", "update p50", "update p99", "bytes per op", "max link share"}
	for _, name := range order {
		fig.Series = append(fig.Series, *series[name])
	}
	return fig, nil
}

// scaleCount maps the -duration knob onto a virtual op count:
// one op per unit, clamped to [lo, hi].
func scaleCount(d, unit time.Duration, lo, hi int) int {
	n := int(d / unit)
	if n < lo {
		n = lo
	}
	if n > hi {
		n = hi
	}
	return n
}

// ProtocolIndex returns the X position of the named protocol in a
// FigureProtocols record, or -1.
func ProtocolIndex(fig *FigureJSON, name string) int {
	names, ok := fig.Params["protocols"].([]string)
	if !ok {
		// A record re-read from JSON decodes as []any.
		raw, ok := fig.Params["protocols"].([]any)
		if !ok {
			return -1
		}
		for i, v := range raw {
			if s, ok := v.(string); ok && s == name {
				return i
			}
		}
		return -1
	}
	for i, n := range names {
		if n == name {
			return i
		}
	}
	return -1
}
