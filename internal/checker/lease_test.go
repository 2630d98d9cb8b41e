package checker

import (
	"testing"

	"crdtsmr/internal/core"
)

// TestExploreLeaseEquivalence is the acceptance sweep of the round-lease
// fast path (docs/PROTOCOL.md §5): the same seeds, the same injected
// workload, driven with the lease on and off on both sides of the replica
// wire's size switch. Both runs must pass the full checker — Validity, Stability,
// Consistency, linearizability, convergence — and converge to identical
// outcomes: the lease changes round trips, never results. The sweep must
// also actually exercise the fast path (LeaseHits > 0), or the
// equivalence proves nothing.
func TestExploreLeaseEquivalence(t *testing.T) {
	seeds := 40
	if testing.Short() {
		seeds = 8
	}
	var hits, fallbacks uint64
	for seed := 0; seed < seeds; seed++ {
		for _, size := range stateSizes {
			var results [2]*ExploreResult
			for i, lease := range []bool{false, true} {
				opts := core.DefaultOptions()
				opts.Lease = lease
				// InjectEvery spaces the ops out; flooding them (1) keeps
				// every round in motion and the fast path never fires.
				res, err := Explore(ExploreConfig{
					Seed:        int64(9000 + seed),
					Replicas:    3,
					Ops:         40,
					ReadRatio:   0.6,
					InjectEvery: 6,
					Options:     opts,
					Initial:     size.initial,
				})
				if err != nil {
					t.Fatalf("seed %d %s lease=%v: %v", seed, size.name, lease, err)
				}
				results[i] = res
			}
			off, on := results[0], results[1]
			if on.UpdatesSubmitted != off.UpdatesSubmitted {
				t.Fatalf("seed %d %s: lease-on injected %d updates, lease-off %d — injection schedule diverged",
					seed, size.name, on.UpdatesSubmitted, off.UpdatesSubmitted)
			}
			if on.FinalValue != off.FinalValue {
				t.Fatalf("seed %d %s: lease-on converged to %d, lease-off to %d",
					seed, size.name, on.FinalValue, off.FinalValue)
			}
			if c := off.Counters; c.LeaseHits != 0 || c.LeaseFallbacks != 0 {
				t.Fatalf("seed %d %s: lease-off run used the fast path: %+v", seed, size.name, c)
			}
			hits += on.Counters.LeaseHits
			fallbacks += on.Counters.LeaseFallbacks
		}
	}
	if hits == 0 {
		t.Fatal("lease-on sweep never learned via the fast path")
	}
	if fallbacks == 0 {
		t.Fatal("lease-on sweep never exercised the fallback — steals/denials untested")
	}
}

// TestExploreLeaseEquivalenceUnderChaos repeats the equivalence sweep
// with message loss, duplication, and crash/restart events: a restarted
// replica must drop its lease (never resume it), and the outcomes must
// still match a lease-off run of the same schedule.
func TestExploreLeaseEquivalenceUnderChaos(t *testing.T) {
	seeds := 25
	if testing.Short() {
		seeds = 6
	}
	var hits uint64
	for seed := 0; seed < seeds; seed++ {
		var results [2]*ExploreResult
		for i, lease := range []bool{false, true} {
			opts := core.DefaultOptions()
			opts.Lease = lease
			// InjectEvery spaces the ops out: flooding all of them at once
			// keeps every round in motion and the fast path never fires,
			// which would leave the crash/restart lease-drop rule untested.
			res, err := Explore(ExploreConfig{
				Seed:        int64(11000 + seed),
				Replicas:    3,
				Ops:         40,
				ReadRatio:   0.6,
				InjectEvery: 6,
				Loss:        0.08,
				Duplication: 0.10,
				Crashes:     2,
				Options:     opts,
				Initial:     PaddedCounter(128),
			})
			if err != nil {
				t.Fatalf("seed %d lease=%v: %v (retransmits=%d)", seed, lease, err, res.Retransmits)
			}
			results[i] = res
		}
		off, on := results[0], results[1]
		if on.UpdatesSubmitted != off.UpdatesSubmitted {
			t.Fatalf("seed %d: injection schedule diverged (%d vs %d)",
				seed, on.UpdatesSubmitted, off.UpdatesSubmitted)
		}
		if on.FinalValue != off.FinalValue {
			t.Fatalf("seed %d: lease-on converged to %d, lease-off to %d",
				seed, on.FinalValue, off.FinalValue)
		}
		hits += on.Counters.LeaseHits
	}
	if hits == 0 {
		t.Fatal("chaos sweep never learned via the fast path")
	}
}
