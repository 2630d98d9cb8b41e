package shootout

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"time"

	"crdtsmr/internal/cluster"
	"crdtsmr/internal/core"
	"crdtsmr/internal/crdt"
	"crdtsmr/internal/transport"
)

// wholeNodeOutcome is the first whole-node run's outcome in this test
// binary: every later run, under -count and every -cpu value, must match
// it byte for byte.
var wholeNodeOutcome string

// TestWholeNodeSeeded runs three durable cluster.Nodes, stepped on one
// Fabric, through a keyed counter and or-set workload under message loss and
// duplication: a crash of n3 with ops open there, a Restart of n3 from its
// DataDir, and a Reconfigure that removes n2, all from one seed. Every
// acknowledged update must survive into the final reads at the two
// remaining members, and the outcome — each op's result and completion
// instant, the final reads, the virtual end time and Fabric.Stats() —
// must be byte-identical from run to run.
func TestWholeNodeSeeded(t *testing.T) {
	const seed = 41
	t.Cleanup(func() {
		if t.Failed() {
			t.Logf("whole-node run failed with seed %d", seed)
		}
	})
	out := runWholeNode(t, seed)
	if again := runWholeNode(t, seed); again != out {
		t.Fatalf("two runs of seed %d differ:\n%s", seed, firstDiff(out, again))
	}
	if wholeNodeOutcome == "" {
		wholeNodeOutcome = out
	} else if out != wholeNodeOutcome {
		t.Fatalf("seed %d differs from this binary's first run:\n%s", seed, firstDiff(wholeNodeOutcome, out))
	}
}

// runWholeNode runs the scenario once and returns its outcome.
func runWholeNode(t *testing.T, seed int64) string {
	t.Helper()
	fab := transport.Net{MinDelay: 500 * time.Microsecond, MaxDelay: 4 * time.Millisecond, Loss: 0.05, Dup: 0.05}.Fabric(seed)
	b, err := newCRDTBackend(fab, 3, cluster.Config{
		Options:           core.DefaultOptions(),
		Shards:            2,
		DataDir:           t.TempDir(),
		PersistWriteDelay: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer b.c.Close()

	counters, sets := []string{"c0", "c1", "c2"}, []string{"or-set/0", "or-set/1"}
	keys := append(slices.Clone(counters), sets...)
	var out strings.Builder
	acked, uncertain := make(map[string]int), make(map[string]int) // counter increments
	added := make(map[string][]string)                             // acknowledged set adds
	live := []int{0, 1, 2}                                         // replicas new ops go to
	rng := rand.New(rand.NewSource(seed))
	const ops, gap = 240, 2 * time.Millisecond
	settled := 0
	for i := 0; i < ops; i++ {
		fab.Schedule(settleTime+time.Duration(i)*gap, func() {
			r, key, read := live[rng.Intn(len(live))], keys[rng.Intn(len(keys))], rng.Intn(3) == 0
			done := func(what string, err error) {
				settled++
				fmt.Fprintf(&out, "op %d n%d %s %s err=%v at %v\n", i, r+1, key, what, err, fab.Now())
			}
			switch {
			case read && strings.HasPrefix(key, "or-set/"):
				b.Card(r, key, func(v int64, err error) { done(fmt.Sprintf("card=%d", v), err) })
			case read:
				b.Read(r, key, func(v int64, err error) { done(fmt.Sprintf("read=%d", v), err) })
			case strings.HasPrefix(key, "or-set/"):
				elem := fmt.Sprintf("e%d", i)
				b.AddElem(r, key, elem, func(err error) {
					if err == nil {
						added[key] = append(added[key], elem)
					}
					done("add "+elem, err)
				})
			default:
				b.Inc(r, key, func(err error) {
					if err == nil {
						acked[key]++
					} else {
						uncertain[key]++
					}
					done("inc", err)
				})
			}
		})
	}

	fab.RunFor(settleTime + 80*gap)
	b.Crash(2)
	live = []int{0, 1}
	fab.RunFor(60 * gap)
	if err := b.c.Restart("n3"); err != nil {
		t.Fatalf("restart n3: %v", err)
	}
	live = []int{0, 1, 2}
	fab.RunFor(40 * gap)
	live = []int{0, 2}
	ctx := context.Background()
	if err := b.nodes[0].Reconfigure(ctx, []transport.NodeID{"n1", "n3"}); err != nil {
		t.Fatalf("reconfigure: %v", err)
	}
	fmt.Fprintf(&out, "reconfigured at %v\n", fab.Now())
	if !fab.RunUntil(func() bool { return settled == ops }) {
		t.Fatalf("%d/%d ops settled", settled, ops)
	}
	fab.RunFor(2 * LeaseDuration)

	for _, r := range []int{0, 2} {
		for _, key := range keys {
			st, _, err := b.nodes[r].QueryKey(ctx, key)
			if err != nil {
				t.Fatalf("final read of %s at n%d: %v", key, r+1, err)
			}
			fmt.Fprintf(&out, "final n%d %s = %v\n", r+1, key, st)
			switch st := st.(type) {
			case *crdt.GCounter:
				if v := int(st.Value()); v < acked[key] || v > acked[key]+uncertain[key] {
					t.Errorf("n%d reads %s = %d, want within [%d, %d]", r+1, key, v, acked[key], acked[key]+uncertain[key])
				}
			case *crdt.ORSet:
				for _, elem := range added[key] {
					if !st.Contains(elem) {
						t.Errorf("n%d lost the acknowledged add of %s to %s", r+1, elem, key)
					}
				}
			}
		}
	}
	fmt.Fprintf(&out, "end %v\nstats %+v\n", fab.Now(), fab.Stats())
	return out.String()
}

// firstDiff shows the first line where two outcomes differ.
func firstDiff(a, b string) string {
	al, bl := strings.Split(a, "\n"), strings.Split(b, "\n")
	for i := range min(len(al), len(bl)) {
		if al[i] != bl[i] {
			return fmt.Sprintf("line %d:\n  %s\n  %s", i+1, al[i], bl[i])
		}
	}
	return fmt.Sprintf("lengths %d and %d lines", len(al), len(bl))
}
