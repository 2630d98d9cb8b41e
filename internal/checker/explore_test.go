package checker

import (
	"testing"

	"crdtsmr/internal/core"
)

// TestExploreManySeeds is the repository's equivalent of the paper's
// protocol-scheduler validation: hundreds of random message interleavings,
// each checked against Validity, Stability, Consistency, linearizability,
// and convergence.
func TestExploreManySeeds(t *testing.T) {
	seeds := 120
	if testing.Short() {
		seeds = 20
	}
	var shared uint64
	for seed := 0; seed < seeds; seed++ {
		res, err := Explore(ExploreConfig{
			Seed:      int64(seed),
			Replicas:  3,
			Ops:       60,
			ReadRatio: 0.5,
			Options:   core.DefaultOptions(),
		})
		if err != nil {
			t.Fatalf("seed %d: %v (updates=%d queries=%d delivered=%d)",
				seed, err, res.UpdatesDone, res.QueriesDone, res.Delivered)
		}
		if res.UpdatesDone+res.QueriesDone == 0 {
			t.Fatalf("seed %d: nothing completed", seed)
		}
		shared += res.Counters.Rows[19]
	}
	requireShared(t, shared)
}

// requireShared fails a sweep in which no query completed with a
// younger query's learn (row Q19 of docs/PROTOCOL.md §1.4): its pass
// would prove nothing about that row.
func requireShared(t *testing.T, shared uint64) {
	t.Helper()
	if shared == 0 {
		t.Fatal("no query completed with a younger query's learn (row Q19) across the sweep")
	}
}

func TestExploreFiveReplicas(t *testing.T) {
	var shared uint64
	for seed := 0; seed < 25; seed++ {
		res, err := Explore(ExploreConfig{
			Seed:      int64(1000 + seed),
			Replicas:  5,
			Ops:       40,
			ReadRatio: 0.4,
			Options:   core.DefaultOptions(),
		})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		shared += res.Counters.Rows[19]
	}
	requireShared(t, shared)
}

func TestExploreReadOnlyNeverRetries(t *testing.T) {
	// With no updates every query must learn by consistent quorum on the
	// first attempt: the workload is conflict-free (§4.1). This is a claim
	// about the base two-phase protocol, so the lease fast path is off —
	// with it on, reads from different proposers steal each other's lease
	// (a fallback counts as a retry) and leased hits learn by vote.
	opts := core.DefaultOptions()
	opts.Lease = false
	res, err := Explore(ExploreConfig{
		Seed:      7,
		Replicas:  3,
		Ops:       50,
		ReadRatio: 1.0,
		Options:   opts,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.MaxAttempts > 1 {
		t.Fatalf("read-only workload retried (max attempts %d)", res.MaxAttempts)
	}
	for i, q := range res.Queries {
		if q.Stats.Path != core.LearnConsistentQuorum {
			t.Fatalf("query %d path = %v, want consistent quorum", i, q.Stats.Path)
		}
		if q.Stats.RoundTrips != 1 {
			t.Fatalf("query %d RTTs = %d, want 1", i, q.Stats.RoundTrips)
		}
	}
}

func TestExploreUpdateOnly(t *testing.T) {
	res, err := Explore(ExploreConfig{
		Seed:      11,
		Replicas:  3,
		Ops:       80,
		ReadRatio: 0,
		Options:   core.DefaultOptions(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.UpdatesDone != 80 {
		t.Fatalf("updates done = %d, want 80", res.UpdatesDone)
	}
}

// TestExploreWithSeededPrepares sweeps with the lease off, so every query
// runs the two-phase path and every retry re-prepares seeded with the LUB
// it gathered (§3.6).
func TestExploreWithSeededPrepares(t *testing.T) {
	opts := core.Options{}
	var shared uint64
	for seed := 0; seed < 40; seed++ {
		res, err := Explore(ExploreConfig{
			Seed:      int64(3000 + seed),
			Replicas:  3,
			Ops:       50,
			ReadRatio: 0.5,
			Options:   opts,
		})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		shared += res.Counters.Rows[19]
	}
	requireShared(t, shared)
}

// TestExploreSmallRunsExactlyLinearizable runs many small explorations and
// decides linearizability exactly with the exhaustive checker, closing the
// completeness gap of the interval conditions for these runs.
func TestExploreSmallRunsExactlyLinearizable(t *testing.T) {
	seeds := 400
	if testing.Short() {
		seeds = 50
	}
	var shared uint64
	for seed := 0; seed < seeds; seed++ {
		res, err := Explore(ExploreConfig{
			Seed:      int64(9000 + seed),
			Replicas:  3,
			Ops:       14,
			ReadRatio: 0.5,
			Options:   core.DefaultOptions(),
		})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if len(res.History) > 20 {
			t.Fatalf("seed %d: history too large for exact check: %d", seed, len(res.History))
		}
		if !BruteForceLinearizable(res.History) {
			t.Fatalf("seed %d: history not linearizable: %+v", seed, res.History)
		}
		shared += res.Counters.Rows[19]
	}
	requireShared(t, shared)
}

func TestExploreDeterministic(t *testing.T) {
	run := func() *ExploreResult {
		res, err := Explore(ExploreConfig{Seed: 42, Replicas: 3, Ops: 40, ReadRatio: 0.5, Options: core.DefaultOptions()})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.Delivered != b.Delivered || a.UpdatesDone != b.UpdatesDone || a.QueriesDone != b.QueriesDone {
		t.Fatalf("same seed diverged: %+v vs %+v", a, b)
	}
	for i := range a.History {
		if a.History[i] != b.History[i] {
			t.Fatalf("histories diverge at op %d", i)
		}
	}
}
