package checker

import (
	"testing"

	"crdtsmr/internal/core"
	"crdtsmr/internal/crdt"
)

// stateSizes are the two sides of the replica wire's size switch that
// every sweep runs: the empty counter travels in full frames, the paper's
// wire; a padded counter travels by digest and delta.
var stateSizes = []struct {
	name    string
	initial *crdt.GCounter
}{
	{"small", nil},
	{"large", PaddedCounter(128)},
}

// TestExploreStateSizesUnderLossAndDuplication is the interleaving sweep
// of the size switch: the same seeds and the same injected workload
// (InjectEvery=1 pins the injection schedule to the seed, independent of
// how many messages each side produces), driven below and above the
// switch over a fabric that loses and duplicates messages. Both sides must
// pass the full checker — Validity, Stability, Consistency,
// linearizability, convergence — and converge to the same final value.
func TestExploreStateSizesUnderLossAndDuplication(t *testing.T) {
	seeds := 40
	if testing.Short() {
		seeds = 8
	}
	var digestReplies, deltaMerges uint64
	for seed := 0; seed < seeds; seed++ {
		var results [2]*ExploreResult
		for i, size := range stateSizes {
			res, err := Explore(ExploreConfig{
				Seed:        int64(5000 + seed),
				Replicas:    3,
				Ops:         40,
				ReadRatio:   0.5,
				InjectEvery: 1,
				Loss:        0.10,
				Duplication: 0.15,
				Options:     core.DefaultOptions(),
				Initial:     size.initial,
			})
			if err != nil {
				t.Fatalf("seed %d %s: %v (retransmits=%d)", seed, size.name, err, res.Retransmits)
			}
			results[i] = res
		}
		small, large := results[0], results[1]
		if large.UpdatesSubmitted != small.UpdatesSubmitted {
			t.Fatalf("seed %d: large injected %d updates, small %d — injection schedule diverged",
				seed, large.UpdatesSubmitted, small.UpdatesSubmitted)
		}
		if large.FinalValue != small.FinalValue {
			t.Fatalf("seed %d: large converged to %d, small to %d", seed, large.FinalValue, small.FinalValue)
		}
		if c := small.Counters; c.DigestReplies != 0 || c.DeltaMerges != 0 || c.DigestMerges != 0 {
			t.Fatalf("seed %d: a small state used digest frames: %+v", seed, c)
		}
		digestReplies += large.Counters.DigestReplies
		deltaMerges += large.Counters.DeltaMerges
	}
	// The sweep must actually exercise the cheap frames, or the pass above
	// proves nothing about them.
	if digestReplies == 0 {
		t.Fatal("large states never produced a digest-only reply across the sweep")
	}
	if deltaMerges == 0 {
		t.Fatal("large states never shipped a delta across the sweep")
	}
}

// TestExploreLossRetransmitsDeterministic: the loss/duplication drain
// (with its retransmit rounds) must stay reproducible from the seed.
func TestExploreLossRetransmitsDeterministic(t *testing.T) {
	run := func() *ExploreResult {
		res, err := Explore(ExploreConfig{
			Seed: 77, Replicas: 3, Ops: 30, ReadRatio: 0.5, InjectEvery: 1,
			Loss: 0.2, Duplication: 0.2, Options: core.DefaultOptions(), Initial: PaddedCounter(128),
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.Delivered != b.Delivered || a.Retransmits != b.Retransmits || a.FinalValue != b.FinalValue {
		t.Fatalf("same seed diverged: %+v vs %+v", a, b)
	}
	for i := range a.History {
		if a.History[i] != b.History[i] {
			t.Fatalf("histories diverge at op %d", i)
		}
	}
}
