package checker

import (
	"fmt"
	"testing"

	"crdtsmr/internal/core"
	"crdtsmr/internal/transport"
)

// TestExploreReconfigSweep is the satellite sweep of the online-membership
// change: for each seed and each state size it runs the workload
// twice — once with a static member set and once with reconfiguration
// rounds (grow by a joiner, shrink back, repeatedly) interleaved with
// message loss, duplication, and crash/restarts — and both runs must pass
// the full checker: Validity, Stability, Consistency, linearizability of
// the surviving history, and convergence of the final configuration's
// members. The dynamic runs must also actually reconfigure: rounds commit,
// configs get adopted beyond the proposer, and at least one stale-epoch
// message is NACKed somewhere in the sweep, or the pass proves nothing
// about the reconfiguration path.
func TestExploreReconfigSweep(t *testing.T) {
	seeds := 30
	if testing.Short() {
		seeds = 6
	}
	var committed, adoptions, epochNacks, abandoned int
	var shared uint64
	for seed := 0; seed < seeds; seed++ {
		for _, size := range stateSizes {
			base := ExploreConfig{
				Seed:        int64(9000 + seed),
				Replicas:    3,
				Ops:         50,
				ReadRatio:   0.4,
				InjectEvery: 1,
				Loss:        0.08,
				Duplication: 0.10,
				Crashes:     2,
				Options:     core.DefaultOptions(),
				Initial:     size.initial,
			}

			static := base
			res, err := Explore(static)
			if err != nil {
				t.Fatalf("seed %d %s static: %v", seed, size.name, err)
			}
			shared += res.Counters.Rows[19]

			dynamic := base
			dynamic.Reconfigs = 4
			res, err = Explore(dynamic)
			if err != nil {
				t.Fatalf("seed %d %s reconfig: %v", seed, size.name, err)
			}
			shared += res.Counters.Rows[19]
			if res.Reconfigs+res.ReconfigFailures != dynamic.Reconfigs {
				t.Fatalf("seed %d %s: %d committed + %d failed != %d scheduled rounds",
					seed, size.name, res.Reconfigs, res.ReconfigFailures, dynamic.Reconfigs)
			}
			// Single-member steps from a 3-replica base: the final member
			// set is the base or the base plus the latest joiner.
			if n := len(res.FinalMembers); n != 3 && n != 4 {
				t.Fatalf("seed %d %s: final config has %d members (%v)", seed, size.name, n, res.FinalMembers)
			}
			committed += res.Reconfigs
			adoptions += int(res.Counters.ConfigAdoptions)
			epochNacks += int(res.Counters.EpochNacks)
			abandoned += res.Abandoned
		}
	}
	if committed == 0 {
		t.Fatal("no reconfiguration round committed across the sweep")
	}
	if adoptions <= committed {
		// Every commit implies the proposer's self-adoption; strictly more
		// adoptions means configs actually propagated to other replicas.
		t.Fatalf("configs never propagated beyond proposers: %d adoptions for %d commits", adoptions, committed)
	}
	if epochNacks == 0 {
		t.Fatal("no stale-epoch message was ever NACKed across the sweep")
	}
	requireShared(t, shared)
	t.Logf("sweep: %d commits, %d adoptions, %d epoch-nacks, %d abandoned updates",
		committed, adoptions, epochNacks, abandoned)
}

// TestExploreReconfigGrowShrinkAlternates pins the schedule's shape on one
// seed without faults: every round commits, the epochs climb one per
// round, and the final configuration (an even number of rounds) is the
// base set again.
func TestExploreReconfigAllCommitWithoutFaults(t *testing.T) {
	res, err := Explore(ExploreConfig{
		Seed:        424242,
		Replicas:    3,
		Ops:         60,
		ReadRatio:   0.3,
		InjectEvery: 1,
		Reconfigs:   4,
		Options:     core.DefaultOptions(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Reconfigs != 4 || res.ReconfigFailures != 0 {
		t.Fatalf("fault-free run: %d committed, %d failed, want 4/0", res.Reconfigs, res.ReconfigFailures)
	}
	if res.FinalEpoch != 4 {
		t.Fatalf("final epoch %d after 4 serial rounds, want 4", res.FinalEpoch)
	}
	want := []transport.NodeID{"n1", "n2", "n3"}
	if fmt.Sprint(res.FinalMembers) != fmt.Sprint(want) {
		t.Fatalf("final members %v after grow/shrink/grow/shrink, want %v", res.FinalMembers, want)
	}
	if res.FinalValue != uint64(res.UpdatesSubmitted) {
		// No loss and no crashes: nothing may be stranded, even across
		// reconfigurations.
		t.Fatalf("fault-free run converged to %d of %d submitted", res.FinalValue, res.UpdatesSubmitted)
	}
}

// TestExploreReconfigDeterministic: reconfiguration scheduling must stay
// reproducible from the seed, like crash scheduling.
func TestExploreReconfigDeterministic(t *testing.T) {
	run := func() *ExploreResult {
		res, err := Explore(ExploreConfig{
			Seed: 99, Replicas: 3, Ops: 40, ReadRatio: 0.5, InjectEvery: 1,
			Loss: 0.15, Duplication: 0.1, Crashes: 2, Reconfigs: 3,
			Options: core.DefaultOptions(), Initial: PaddedCounter(128),
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.Delivered != b.Delivered || a.FinalValue != b.FinalValue ||
		a.Reconfigs != b.Reconfigs || a.ReconfigFailures != b.ReconfigFailures ||
		a.FinalEpoch != b.FinalEpoch || fmt.Sprint(a.FinalMembers) != fmt.Sprint(b.FinalMembers) {
		t.Fatalf("same seed diverged:\n%+v\nvs\n%+v", a, b)
	}
	for i := range a.History {
		if a.History[i] != b.History[i] {
			t.Fatalf("histories diverge at op %d", i)
		}
	}
}
