package bench

import (
	"fmt"
	"io"
	"time"
)

// --- keys-vs-throughput sweep ---

// KeySweepPoint is one measurement of the sweep: the sharded store under
// clientsPerKey closed-loop clients per key, at a given key count.
type KeySweepPoint struct {
	Keys    int
	Clients int
	Result  Result

	// UpdatesPerSec and ReadsPerSec split the aggregate rate by kind
	// (completed operations over the measured window).
	UpdatesPerSec float64
	ReadsPerSec   float64
}

// RunKeysSweep measures aggregate throughput as the keyspace grows with a
// fixed per-key load: for each key count k it runs k×clientsPerKey clients
// against a fresh sharded store. Because keys are independent replication
// groups with no shared ordering machinery, aggregate throughput grows
// with the key count until the nodes' event loops saturate — the sharding
// story Multi-Paxos and Raft cannot tell without per-key logs.
func RunKeysSweep(s Scale, keyCounts []int, clientsPerKey int, readFraction float64, batch time.Duration) ([]KeySweepPoint, error) {
	points := make([]KeySweepPoint, 0, len(keyCounts))
	for _, k := range keyCounts {
		if k <= 0 {
			return nil, fmt.Errorf("bench: need at least one key, got %d", k)
		}
		sys, err := NewCRDTSystem(s.Replicas, CRDTOpts{Keys: k, Batch: batch}, s.Net)
		if err != nil {
			return nil, err
		}
		res := Run(sys, RunConfig{
			Clients:      k * clientsPerKey,
			ReadFraction: readFraction,
			Duration:     s.Duration,
			Warmup:       s.Warmup,
			Seed:         s.Net.Seed,
		})
		sys.Close()
		if res.Errors > 0 {
			return nil, fmt.Errorf("bench: %d errors at %d keys", res.Errors, k)
		}
		secs := res.Elapsed.Seconds()
		p := KeySweepPoint{Keys: k, Clients: k * clientsPerKey, Result: res}
		if secs > 0 {
			p.UpdatesPerSec = float64(res.UpdateLat.Count) / secs
			p.ReadsPerSec = float64(res.ReadLat.Count) / secs
		}
		points = append(points, p)
	}
	return points, nil
}

// FigureKeys reports the keys-vs-throughput sweep (the repository's
// scaling experiment beyond the paper's single-object evaluation):
// aggregate and per-kind throughput of the sharded store as the key count
// grows with clientsPerKey closed-loop clients per key, with and without
// per-key batching.
func FigureKeys(w io.Writer, s Scale, keyCounts []int, clientsPerKey int) error {
	const readFraction = 0.5
	fmt.Fprintf(w, "Figure K: sharded store throughput vs key count (%d replicas, %d clients/key, %.0f%% reads)\n",
		s.Replicas, clientsPerKey, readFraction*100)
	for _, batch := range []time.Duration{0, s.Batch} {
		label := "without batching"
		if batch > 0 {
			label = fmt.Sprintf("with per-key %s batching", batch)
		}
		fmt.Fprintf(w, "\n  %s\n", label)
		fmt.Fprintf(w, "  %6s %9s %12s %12s %12s %12s\n",
			"keys", "clients", "ops/s", "updates/s", "reads/s", "read p95")
		points, err := RunKeysSweep(s, keyCounts, clientsPerKey, readFraction, batch)
		if err != nil {
			return err
		}
		for _, p := range points {
			fmt.Fprintf(w, "  %6d %9d %12.0f %12.0f %12.0f %12s\n",
				p.Keys, p.Clients, p.Result.Throughput, p.UpdatesPerSec, p.ReadsPerSec,
				p.Result.ReadLat.P95.Round(time.Microsecond))
		}
	}
	return nil
}
