package checker

import (
	"testing"

	"crdtsmr/internal/core"
)

// TestExploreCrashRestartModes is the crash/restart sweep of the
// persistence subsystem: the same seeds driven with and without injected
// crash/restart events, on both sides of the replica wire's size switch,
// under message loss and duplication. Every run must pass the full checker
// (Validity, Stability, Consistency, linearizability, convergence), and
// because the crash scheduler draws from its own RNG, the command
// schedule — and therefore the converged final value — must be identical
// between a crashing run and a never-crashing run of the same seed, and
// across both sizes: recovery from snapshots changes what survives a
// crash, never what the cluster computes.
func TestExploreCrashRestartModes(t *testing.T) {
	seeds := 25
	if testing.Short() {
		seeds = 6
	}
	totalRestarts, totalAbandoned := 0, 0
	for seed := 0; seed < seeds; seed++ {
		var baseline *ExploreResult
		for _, size := range stateSizes {
			for _, crashes := range []int{0, 3} {
				res, err := Explore(ExploreConfig{
					Seed:        int64(9000 + seed),
					Replicas:    3,
					Ops:         40,
					ReadRatio:   0.5,
					InjectEvery: 1,
					Loss:        0.10,
					Duplication: 0.10,
					Crashes:     crashes,
					Options:     core.DefaultOptions(),
					Initial:     size.initial,
				})
				if err != nil {
					t.Fatalf("seed %d %s crashes %d: %v (restarts=%d abandoned=%d)",
						seed, size.name, crashes, err, res.Restarts, res.Abandoned)
				}
				if crashes > 0 && res.Restarts != crashes {
					t.Fatalf("seed %d %s: injected %d restarts, want %d", seed, size.name, res.Restarts, crashes)
				}
				if crashes == 0 && res.Restarts != 0 {
					t.Fatalf("seed %d %s: crash-free run restarted %d times", seed, size.name, res.Restarts)
				}
				if baseline == nil {
					baseline = res
					continue
				}
				if res.UpdatesSubmitted != baseline.UpdatesSubmitted {
					t.Fatalf("seed %d %s crashes %d: submitted %d updates, baseline %d — command schedule diverged",
						seed, size.name, crashes, res.UpdatesSubmitted, baseline.UpdatesSubmitted)
				}
				if res.FinalValue != baseline.FinalValue {
					t.Fatalf("seed %d %s crashes %d: converged to %d, baseline %d",
						seed, size.name, crashes, res.FinalValue, baseline.FinalValue)
				}
				totalRestarts += res.Restarts
				totalAbandoned += res.Abandoned
			}
		}
	}
	if totalRestarts == 0 {
		t.Fatal("the sweep never injected a restart")
	}
	// If no crash ever caught an update in flight, the fate-unknown
	// machinery (History.Abandon) was never exercised and the sweep is
	// weaker than it claims.
	if totalAbandoned == 0 {
		t.Fatal("no crash ever abandoned an in-flight update across the sweep")
	}
}

// TestExploreCrashRestartDeterministic: crash/restart runs must stay
// fully reproducible from the seed, histories included.
func TestExploreCrashRestartDeterministic(t *testing.T) {
	run := func() *ExploreResult {
		res, err := Explore(ExploreConfig{
			Seed: 311, Replicas: 3, Ops: 30, ReadRatio: 0.5, InjectEvery: 1,
			Loss: 0.15, Duplication: 0.1, Crashes: 4, Options: core.DefaultOptions(), Initial: PaddedCounter(128),
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.Delivered != b.Delivered || a.Restarts != b.Restarts ||
		a.Abandoned != b.Abandoned || a.FinalValue != b.FinalValue {
		t.Fatalf("same seed diverged: %+v vs %+v", a, b)
	}
	if len(a.History) != len(b.History) {
		t.Fatalf("history lengths diverge: %d vs %d", len(a.History), len(b.History))
	}
	for i := range a.History {
		if a.History[i] != b.History[i] {
			t.Fatalf("histories diverge at op %d: %+v vs %+v", i, a.History[i], b.History[i])
		}
	}
}

// TestExploreCrashCountExact: the crash scheduler must deliver exactly
// cfg.Crashes events even when the integer-division thresholds collide
// (Crashes close to or exceeding Ops).
func TestExploreCrashCountExact(t *testing.T) {
	for _, tc := range []struct{ ops, crashes int }{
		{10, 10}, {10, 7}, {5, 9}, {40, 1},
	} {
		res, err := Explore(ExploreConfig{
			Seed: 99, Replicas: 3, Ops: tc.ops, ReadRatio: 0.5,
			Crashes: tc.crashes, Options: core.DefaultOptions(),
		})
		if err != nil {
			t.Fatalf("ops=%d crashes=%d: %v", tc.ops, tc.crashes, err)
		}
		if res.Restarts != tc.crashes {
			t.Fatalf("ops=%d crashes=%d: %d restarts injected", tc.ops, tc.crashes, res.Restarts)
		}
	}
}

// TestExploreCrashRestartCleanNetwork: crashes alone (no loss, no
// duplication) across a larger seed range — isolates recovery from the
// loss machinery.
func TestExploreCrashRestartCleanNetwork(t *testing.T) {
	seeds := 30
	if testing.Short() {
		seeds = 8
	}
	for seed := 0; seed < seeds; seed++ {
		res, err := Explore(ExploreConfig{
			Seed:      int64(400 + seed),
			Replicas:  5,
			Ops:       50,
			ReadRatio: 0.4,
			Crashes:   5,
			Options:   core.DefaultOptions(),
		})
		if err != nil {
			t.Fatalf("seed %d: %v (restarts=%d)", seed, err, res.Restarts)
		}
		if res.Restarts != 5 {
			t.Fatalf("seed %d: %d restarts, want 5", seed, res.Restarts)
		}
	}
}
