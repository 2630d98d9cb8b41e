package paxos_test

// Property tests driving the Multi-Paxos RSM through the latency-emulated
// transport.Fabric via the shootout harness: seeded loss, duplication, and
// partitions must leave every client-visible history linearizable, and the
// same seed must reproduce the same decided command sequence.

import (
	"reflect"
	"testing"

	"crdtsmr/internal/checker"
	"crdtsmr/internal/rsm"
	"crdtsmr/internal/shootout"
	"crdtsmr/internal/transport"
)

func paxosSpec(t *testing.T) shootout.Spec {
	t.Helper()
	sp, err := shootout.SpecNamed("paxos")
	if err != nil {
		t.Fatal(err)
	}
	return sp
}

// TestPaxosLinearizableUnderLossAndDuplication fuzzes loss+duplication
// schedules by seed. Duplication is the interesting axis: a duplicated
// client forward must not commit a command twice (leader-side dedup).
func TestPaxosLinearizableUnderLossAndDuplication(t *testing.T) {
	seeds := []int64{1, 2, 3, 4, 5, 6, 7, 8}
	if testing.Short() {
		seeds = seeds[:2]
	}
	for _, seed := range seeds {
		net := transport.LAN()
		net.Loss, net.Dup = 0.15, 0.15
		res, err := shootout.Conform(paxosSpec(t), shootout.ConformConfig{
			Seed: seed, Replicas: 3, Ops: 60, Net: net,
		})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if err := checker.CheckCounterLinearizable(res.Ops); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if res.Incs == 0 || res.Reads == 0 {
			t.Fatalf("seed %d: degenerate run %+v", seed, res)
		}
	}
}

// TestPaxosLinearizableUnderPartitions adds minority partitions: leader
// failovers must not lose or double-apply committed commands.
func TestPaxosLinearizableUnderPartitions(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	for _, seed := range []int64{10, 11, 12} {
		net := transport.LAN()
		net.Loss = 0.05
		res, err := shootout.Conform(paxosSpec(t), shootout.ConformConfig{
			Seed: seed, Replicas: 3, Ops: 80, Net: net, Partitions: 2,
		})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if err := checker.CheckCounterLinearizable(res.Ops); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

// TestPaxosSameSeedSameDecisions pins determinism and agreement: two runs
// from the same seed decide byte-identical command sequences, and within a
// run every pair of replica logs is prefix-consistent (no divergence).
func TestPaxosSameSeedSameDecisions(t *testing.T) {
	run := func() *shootout.ConformResult {
		net := transport.LAN()
		net.Loss, net.Dup = 0.1, 0.1
		res, err := shootout.Conform(paxosSpec(t), shootout.ConformConfig{
			Seed: 42, Replicas: 3, Ops: 50, Net: net,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a.AppliedLogs, b.AppliedLogs) {
		t.Fatalf("same seed decided different logs:\n%v\n%v", a.AppliedLogs, b.AppliedLogs)
	}
	if !reflect.DeepEqual(a.FinalReads, b.FinalReads) {
		t.Fatalf("same seed, different final reads: %v vs %v", a.FinalReads, b.FinalReads)
	}
	assertPrefixConsistent(t, a.AppliedLogs)
}

// assertPrefixConsistent checks replicas agree on the decided mutation
// sequence. Reads are filtered out first: the leader applies lease-served
// reads locally without a log slot, so raw applied logs differ by design.
func assertPrefixConsistent(t *testing.T, applied [][]string) {
	t.Helper()
	logs := make([][]string, len(applied))
	for i, log := range applied {
		for _, cmd := range log {
			c, err := rsm.DecodeCommand([]byte(cmd))
			if err == nil && c.IsRead() {
				continue
			}
			logs[i] = append(logs[i], cmd)
		}
	}
	for i := 0; i < len(logs); i++ {
		for j := i + 1; j < len(logs); j++ {
			n := len(logs[i])
			if len(logs[j]) < n {
				n = len(logs[j])
			}
			for k := 0; k < n; k++ {
				if logs[i][k] != logs[j][k] {
					t.Fatalf("replicas %d and %d diverge at applied index %d: %q vs %q",
						i, j, k, logs[i][k], logs[j][k])
				}
			}
		}
	}
}
