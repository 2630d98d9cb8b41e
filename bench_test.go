package crdtsmr

// Ablations behind the paper's design choices (why GLA's history-sized
// messages were left out of §4; what delta payloads would save) and the
// single-operation latency of the public API. The paper's figures are
// cmd/bench's; the served path is measured by benchmark/.
//
//	go test -bench=. -benchmem

import (
	"context"
	"fmt"
	"testing"

	"crdtsmr/internal/crdt"
	"crdtsmr/internal/gla"
	"crdtsmr/internal/transport"
)

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
