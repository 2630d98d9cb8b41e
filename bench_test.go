package crdtsmr

// Benchmark harness entry points, one per table/figure of the paper's
// evaluation (§4), plus the ablations called out in DESIGN.md. Each
// benchmark runs a scaled-down version of the corresponding experiment;
// cmd/bench runs the full parameterizable sweeps.
//
//	go test -bench=. -benchmem
//	go test -bench=Figure1 -benchtime=5x

import (
	"context"
	"fmt"
	"testing"
	"time"

	"crdtsmr/internal/bench"
	"crdtsmr/internal/core"
	"crdtsmr/internal/crdt"
	"crdtsmr/internal/gla"
	"crdtsmr/internal/transport"
)

// benchNet uses a small emulated LAN delay; zero-delay runs measure only
// scheduler overhead and hide the protocols' round-trip differences.
func benchNet() bench.NetProfile {
	return bench.NetProfile{MinDelay: 20 * time.Microsecond, MaxDelay: 80 * time.Microsecond, Seed: 1}
}

func runPoint(b *testing.B, sys bench.System, clients int, readFraction float64) bench.Result {
	b.Helper()
	res := bench.Run(sys, bench.RunConfig{
		Clients:      clients,
		ReadFraction: readFraction,
		Duration:     400 * time.Millisecond,
		Warmup:       100 * time.Millisecond,
	})
	b.ReportMetric(res.Throughput, "req/s")
	b.ReportMetric(float64(res.ReadLat.P95.Microseconds()), "read-p95-µs")
	b.ReportMetric(float64(res.UpdateLat.P95.Microseconds()), "update-p95-µs")
	return res
}

// BenchmarkFigure1 reproduces the throughput comparison of Figure 1:
// systems × read mixes × client counts on three replicas.
func BenchmarkFigure1(b *testing.B) {
	systems := []struct {
		name  string
		build func() (bench.System, error)
	}{
		{"CRDTPaxos", func() (bench.System, error) { return bench.NewCRDTSystem(3, bench.CRDTOpts{}, benchNet()) }},
		{"CRDTPaxosBatched", func() (bench.System, error) {
			return bench.NewCRDTSystem(3, bench.CRDTOpts{Batch: 5 * time.Millisecond}, benchNet())
		}},
		{"Raft", func() (bench.System, error) { return bench.NewRaftSystem(3, benchNet()) }},
		{"MultiPaxos", func() (bench.System, error) { return bench.NewPaxosSystem(3, benchNet()) }},
	}
	for _, mix := range []float64{1.00, 0.95, 0.90, 0.50, 0.00} {
		for _, clients := range []int{1, 16, 64} {
			for _, spec := range systems {
				name := fmt.Sprintf("reads=%.0f%%/clients=%d/%s", mix*100, clients, spec.name)
				b.Run(name, func(b *testing.B) {
					for i := 0; i < b.N; i++ {
						sys, err := spec.build()
						if err != nil {
							b.Fatal(err)
						}
						runPoint(b, sys, clients, mix)
						sys.Close()
					}
				})
			}
		}
	}
}

// BenchmarkFigure2 reproduces the tail-latency comparison of Figure 2:
// read/update p95 at 10 % updates across client counts.
func BenchmarkFigure2(b *testing.B) {
	for _, clients := range []int{1, 16, 64, 128} {
		b.Run(fmt.Sprintf("clients=%d/CRDTPaxos", clients), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sys, err := bench.NewCRDTSystem(3, bench.CRDTOpts{}, benchNet())
				if err != nil {
					b.Fatal(err)
				}
				runPoint(b, sys, clients, 0.90)
				sys.Close()
			}
		})
		b.Run(fmt.Sprintf("clients=%d/CRDTPaxosBatched", clients), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sys, err := bench.NewCRDTSystem(3, bench.CRDTOpts{Batch: 5 * time.Millisecond}, benchNet())
				if err != nil {
					b.Fatal(err)
				}
				runPoint(b, sys, clients, 0.90)
				sys.Close()
			}
		})
	}
}

// BenchmarkFigure3 reproduces the read round-trip distribution of
// Figure 3, reporting the cumulative percentage of reads finishing within
// one and two round trips (the paper's >97 % headline refers to the
// batched variant).
func BenchmarkFigure3(b *testing.B) {
	for _, batched := range []bool{false, true} {
		for _, clients := range []int{16, 64} {
			name := fmt.Sprintf("batching=%t/clients=%d", batched, clients)
			b.Run(name, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					window := time.Duration(0)
					if batched {
						window = 5 * time.Millisecond
					}
					sys, err := bench.NewCRDTSystem(3, bench.CRDTOpts{Batch: window}, benchNet())
					if err != nil {
						b.Fatal(err)
					}
					res := bench.Run(sys, bench.RunConfig{
						Clients:      clients,
						ReadFraction: 0.90,
						Duration:     400 * time.Millisecond,
						Warmup:       100 * time.Millisecond,
					})
					sys.Close()
					cdf := res.ReadRTTs.CDF(15)
					b.ReportMetric(cdf[0], "%reads≤1RTT")
					b.ReportMetric(cdf[1], "%reads≤2RTT")
				}
			})
		}
	}
}

// BenchmarkFigure4 reproduces the node-failure experiment of Figure 4:
// p95 latency with a replica crashing mid-run, reported as the worst
// post-failure interval p95 (availability is continuous; only latency
// rises).
func BenchmarkFigure4(b *testing.B) {
	for _, batched := range []bool{false, true} {
		b.Run(fmt.Sprintf("batching=%t", batched), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				window := time.Duration(0)
				if batched {
					window = 5 * time.Millisecond
				}
				sys, err := bench.NewCRDTSystem(3, bench.CRDTOpts{Batch: window}, benchNet())
				if err != nil {
					b.Fatal(err)
				}
				res := bench.Run(sys, bench.RunConfig{
					Clients:      16,
					ReadFraction: 0.90,
					Duration:     800 * time.Millisecond,
					Warmup:       100 * time.Millisecond,
					Interval:     100 * time.Millisecond,
					FailAfter:    400 * time.Millisecond,
					FailReplica:  2,
				})
				sys.Close()
				var worstPost time.Duration
				postOps := 0
				for _, iv := range res.Timeline {
					if iv.Index >= 4 {
						postOps += iv.Ops
						if iv.ReadP95 > worstPost {
							worstPost = iv.ReadP95
						}
					}
				}
				if postOps == 0 {
					b.Fatal("no operations after failure: availability lost")
				}
				b.ReportMetric(float64(worstPost.Microseconds()), "post-failure-read-p95-µs")
				b.ReportMetric(float64(postOps), "post-failure-ops")
			}
		})
	}
}

// BenchmarkAblationGLAMessageGrowth quantifies why the paper excluded the
// Faleiro et al. GLA protocol from its evaluation: its coordination bytes
// grow with the command history, whereas CRDT Paxos's per-message overhead
// stays a single round (counter) regardless of history length.
func BenchmarkAblationGLAMessageGrowth(b *testing.B) {
	for _, history := range []int{10, 100, 1000} {
		b.Run(fmt.Sprintf("history=%d", history), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				members := []transport.NodeID{"n1", "n2", "n3"}
				reps := map[transport.NodeID]*gla.Replica{}
				for _, id := range members {
					rep, err := gla.NewReplica(id, members, nil)
					if err != nil {
						b.Fatal(err)
					}
					reps[id] = rep
				}
				type tagged struct {
					from transport.NodeID
					env  gla.Envelope
				}
				var pool []tagged
				pump := func() {
					for id, rep := range reps {
						for _, e := range rep.TakeOutbox() {
							pool = append(pool, tagged{from: id, env: e})
						}
					}
				}
				for c := 0; c < history; c++ {
					reps["n1"].ReceiveValue(fmt.Sprintf("cmd-%06d", c))
					pump()
					for len(pool) > 0 {
						msg := pool[0]
						pool = pool[1:]
						reps[msg.env.To].Deliver(msg.from, msg.env.Payload)
						pump()
					}
				}
				total := uint64(0)
				for _, rep := range reps {
					total += rep.BytesSent
				}
				b.ReportMetric(float64(total)/float64(history), "bytes/cmd")
			}
		})
	}
}

// BenchmarkAblationDeltaMerge compares full-state MERGE payloads against
// delta-mutation payloads (Almeida et al.), the future-work direction the
// paper cites for large CRDTs.
func BenchmarkAblationDeltaMerge(b *testing.B) {
	for _, replicas := range []int{3, 32, 256} {
		b.Run(fmt.Sprintf("replicas=%d", replicas), func(b *testing.B) {
			c := crdt.NewGCounter()
			for i := 0; i < replicas; i++ {
				c = c.Inc(fmt.Sprintf("r%04d", i), uint64(i+1))
			}
			fullBytes, deltaBytes := 0, 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				full := c.Inc("r0000", 1)
				raw, err := crdt.Marshal(full)
				if err != nil {
					b.Fatal(err)
				}
				fullBytes = len(raw)
				delta := c.IncDelta("r0000", 1)
				rawDelta, err := crdt.Marshal(delta)
				if err != nil {
					b.Fatal(err)
				}
				deltaBytes = len(rawDelta)
			}
			b.ReportMetric(float64(fullBytes), "full-state-bytes")
			b.ReportMetric(float64(deltaBytes), "delta-bytes")
		})
	}
}

// BenchmarkAblationSeedPrepare measures the §3.2 option of seeding the
// first PREPARE with the proposer's local state versus the §3.6 default of
// sending nothing.
func BenchmarkAblationSeedPrepare(b *testing.B) {
	for _, seeded := range []bool{false, true} {
		b.Run(fmt.Sprintf("seeded=%t", seeded), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				opts := core.DefaultOptions()
				opts.SeedPrepare = seeded
				sys, err := bench.NewCRDTSystem(3, bench.CRDTOpts{Protocol: opts}, benchNet())
				if err != nil {
					b.Fatal(err)
				}
				res := bench.Run(sys, bench.RunConfig{
					Clients:      16,
					ReadFraction: 0.50,
					Duration:     300 * time.Millisecond,
					Warmup:       50 * time.Millisecond,
				})
				sys.Close()
				b.ReportMetric(res.Throughput, "req/s")
			}
		})
	}
}

// BenchmarkUpdateLatency measures the single-operation update path end to
// end through the public API (one round trip by construction, §3.2).
func BenchmarkUpdateLatency(b *testing.B) {
	cl, err := NewLocalCluster(3, NewGCounter())
	if err != nil {
		b.Fatal(err)
	}
	defer cl.Close()
	ctr := cl.Counter("n1")
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := ctr.Inc(ctx, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkQueryLatency measures the conflict-free read path (learned by
// consistent quorum in one round trip).
func BenchmarkQueryLatency(b *testing.B) {
	cl, err := NewLocalCluster(3, NewGCounter())
	if err != nil {
		b.Fatal(err)
	}
	defer cl.Close()
	ctr := cl.Counter("n1")
	ctx := context.Background()
	if err := ctr.Inc(ctx, 1); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ctr.Value(ctx); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCRDTMerge measures raw payload merge cost for representative
// types (the protocol's hot path).
func BenchmarkCRDTMerge(b *testing.B) {
	gc := crdt.NewGCounter()
	for i := 0; i < 64; i++ {
		gc = gc.Inc(fmt.Sprintf("r%02d", i), 1)
	}
	or := crdt.NewORSet()
	for i := 0; i < 64; i++ {
		or = or.Add(fmt.Sprintf("e%02d", i), "a", uint64(i))
	}
	b.Run("GCounter64", func(b *testing.B) {
		other := gc.Inc("r00", 5)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := gc.Merge(other); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("ORSet64", func(b *testing.B) {
		other := or.Add("extra", "b", 1)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := or.Merge(other); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkCodec measures the wire codec for the G-Counter payload.
func BenchmarkCodec(b *testing.B) {
	gc := crdt.NewGCounter()
	for i := 0; i < 16; i++ {
		gc = gc.Inc(fmt.Sprintf("r%02d", i), uint64(i))
	}
	raw, err := crdt.Marshal(gc)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("Marshal", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := crdt.Marshal(gc); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("Unmarshal", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := crdt.Unmarshal(raw); err != nil {
				b.Fatal(err)
			}
		}
	})
}
