package bench

import (
	"fmt"
	"io"
	"os"
	"time"

	"crdtsmr/internal/persist"
)

// Fixed shape of the shards figure: a keyspace wide enough that every
// shard count under test has keys to spread, enough closed-loop writers
// to keep all shards busy, and a 1 ms emulated device flush under
// SyncAlways so persistence — not the CPU — is the bottleneck. Because
// WriteDelay > 0 substitutes the deterministic emulated flush for the
// physical fsync barriers (see persist.Options.WriteDelay), the figure
// is latency-bound and hardware-independent: the group-commit and
// sharding wins come from overlapping emulated flush sleeps, which
// works identically on one core or sixty-four and does not depend on
// how the host filesystem's journal serializes contended fsyncs.
//
// The client count stays well under the serial baseline's saturation
// knee: at 1 ms per Save one loop sustains ~10³ saves/s, and closed-loop
// latency is clients/throughput — too many clients and the baseline
// row's queueing delay outruns the runner's post-stop drain deadline.
// 32 writers over 64 keys still keep tens of keys dirty at once, which
// is all the group-commit batcher needs.
const (
	shardsFigKeys       = 64
	shardsFigClients    = 32
	shardsFigWriteDelay = time.Millisecond
	// With flush-bound op latencies (tens to hundreds of ms) the seed's
	// 10 ms retransmit timer is pathological: every in-flight key
	// re-MERGEs ~10×/op, and the serial row's flush-blocked loops drop
	// fresh frames behind the duplicates. 100 ms keeps retransmission a
	// recovery mechanism instead of the dominant load.
	shardsFigRetransmit = 100 * time.Millisecond
)

// ShardsPoint is one row of the shards figure: the durable multi-key
// store at a given shard count and persistence mode.
type ShardsPoint struct {
	Name   string // row label
	Shards int
	Serial bool // serial one-Save-per-event persistence (the baseline)
	Result Result

	UpdatesPerSec float64
	// Speedup is UpdatesPerSec over the serial baseline's (1.0 for the
	// baseline row itself).
	Speedup float64
}

// RunShardsSweep measures the durability pipeline: a durable 3-replica
// store under an all-update workload with SyncAlways and an emulated
// per-write device flush, first with the seed's serial persistence on a
// single event loop (every key behind one goroutine and one flush), then
// with the asynchronous group-commit persister at growing shard counts.
// Each row gets a fresh store on a fresh data directory.
func RunShardsSweep(s Scale, shardCounts []int) ([]ShardsPoint, error) {
	type rowSpec struct {
		name   string
		shards int
		serial bool
	}
	rows := []rowSpec{{"serial-persist", 1, true}}
	for _, n := range shardCounts {
		rows = append(rows, rowSpec{fmt.Sprintf("group-commit/%d-shard", n), n, false})
	}

	// Snapshot directories live on tmpfs when the host has one: the
	// figure models its device with the emulated flush, so the real
	// filesystem must stay off the critical path — on a virtio disk the
	// per-key create/rename syscalls cost as much as the emulated flush
	// itself and their latency is noisy, which would turn a latency-bound
	// figure into a measurement of the host's I/O stack.
	tmpBase := "/dev/shm"
	if st, err := os.Stat(tmpBase); err != nil || !st.IsDir() {
		tmpBase = "" // fall back to the default temp dir
	}

	points := make([]ShardsPoint, 0, len(rows))
	for _, row := range rows {
		dir, err := os.MkdirTemp(tmpBase, "bench-shards-*")
		if err != nil {
			return nil, err
		}
		sys, err := NewCRDTSystem(s.Replicas, CRDTOpts{
			Keys:              shardsFigKeys,
			DataDir:           dir,
			Shards:            row.shards,
			SerialPersist:     row.serial,
			PersistSync:       persist.SyncAlways,
			PersistWriteDelay: shardsFigWriteDelay,
			Retransmit:        shardsFigRetransmit,
		}, s.Net)
		if err != nil {
			os.RemoveAll(dir)
			return nil, err
		}
		res := Run(sys, RunConfig{
			Clients:      shardsFigClients,
			ReadFraction: 0, // updates only: every op exercises the persistence pipeline
			Duration:     s.Duration,
			Warmup:       s.Warmup,
			Seed:         s.Net.Seed,
		})
		sys.Close()
		os.RemoveAll(dir)
		if res.Errors > 0 {
			return nil, fmt.Errorf("bench: %d errors in the %s row", res.Errors, row.name)
		}
		p := ShardsPoint{Name: row.name, Shards: row.shards, Serial: row.serial, Result: res}
		if secs := res.Elapsed.Seconds(); secs > 0 {
			p.UpdatesPerSec = float64(res.UpdateLat.Count) / secs
		}
		points = append(points, p)
	}
	base := points[0].UpdatesPerSec
	for i := range points {
		if base > 0 {
			points[i].Speedup = points[i].UpdatesPerSec / base
		}
	}
	return points, nil
}

// FigureShards reports the sharded-event-loop + group-commit experiment:
// update throughput and tail latency of the durable store as persistence
// moves off the event loop (serial → group commit) and the keyspace
// spreads across event-loop shards. The baseline row reproduces the
// seed's architecture — one loop, one synchronous Save per dirty key —
// so the table reads as "what the refactor bought".
func FigureShards(w io.Writer, s Scale) (*FigureJSON, error) {
	shardCounts := []int{1, 2, 4}
	fmt.Fprintf(w, "Figure S: durable update throughput vs shards and persistence mode\n")
	fmt.Fprintf(w, "  (%d replicas, %d keys, %d clients, SyncAlways, %s emulated flush/write)\n",
		s.Replicas, shardsFigKeys, shardsFigClients, shardsFigWriteDelay)
	points, err := RunShardsSweep(s, shardCounts)
	if err != nil {
		return nil, err
	}

	fmt.Fprintf(w, "  %-22s %6s %12s %10s %10s %10s\n",
		"configuration", "shards", "updates/s", "p50", "p99", "speedup")
	for _, p := range points {
		fmt.Fprintf(w, "  %-22s %6d %12.0f %10s %10s %9.2fx\n",
			p.Name, p.Shards, p.UpdatesPerSec,
			fmtDur(p.Result.UpdateLat.P50), fmtDur(p.Result.UpdateLat.P99), p.Speedup)
	}

	fig := &FigureJSON{
		Schema: FigureSchema,
		Figure: "shards",
		GitSHA: buildGitSHA(),
		Params: map[string]any{
			"replicas":       s.Replicas,
			"keys":           shardsFigKeys,
			"clients":        shardsFigClients,
			"read_fraction":  0.0,
			"sync":           "always",
			"write_delay_ms": float64(shardsFigWriteDelay) / float64(time.Millisecond),
			"duration_ms":    float64(s.Duration) / float64(time.Millisecond),
			"seed":           s.Net.Seed,
		},
	}
	serial := FigureSeries{Name: "serial-persist", Unit: "updates/s"}
	group := FigureSeries{Name: "group-commit", Unit: "updates/s"}
	groupP99 := FigureSeries{Name: "group-commit p99", Unit: "ms"}
	for _, p := range points {
		ms := float64(p.Result.UpdateLat.P99) / float64(time.Millisecond)
		if p.Serial {
			serial.X = append(serial.X, float64(p.Shards))
			serial.Y = append(serial.Y, p.UpdatesPerSec)
			fig.Params["serial_p99_ms"] = ms
			continue
		}
		group.X = append(group.X, float64(p.Shards))
		group.Y = append(group.Y, p.UpdatesPerSec)
		groupP99.X = append(groupP99.X, float64(p.Shards))
		groupP99.Y = append(groupP99.Y, ms)
	}
	fig.Series = []FigureSeries{serial, group, groupP99}
	return fig, nil
}
