package bench

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

func TestRunKeyedCRDTSystem(t *testing.T) {
	sys, err := NewCRDTSystem(3, CRDTOpts{Keys: 16}, NetProfile{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	res := Run(sys, RunConfig{Clients: 32, ReadFraction: 0.5, Duration: 300 * time.Millisecond, Warmup: 50 * time.Millisecond})
	if res.Ops == 0 {
		t.Fatal("no operations completed")
	}
	if res.Errors > 0 {
		t.Fatalf("%d errors in failure-free run", res.Errors)
	}
	if res.ReadLat.Count == 0 || res.UpdateLat.Count == 0 {
		t.Fatalf("one-sided workload recorded: %+v", res)
	}
}

func TestKeyedCRDTSystemClientSpread(t *testing.T) {
	sys, err := NewCRDTSystem(3, CRDTOpts{Keys: 4}, NetProfile{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	// Clients 0..3 hit distinct keys; clients 0, 4, 8 share a key but sit
	// on distinct replicas.
	c0 := sys.Client(0).(*crdtClient)
	c4 := sys.Client(4).(*crdtClient)
	c8 := sys.Client(8).(*crdtClient)
	if c0.key != c4.key || c4.key != c8.key {
		t.Fatalf("clients 0/4/8 keys = %s/%s/%s, want same key", c0.key, c4.key, c8.key)
	}
	if c0.slot == c4.slot || c4.slot == c8.slot || c0.slot == c8.slot {
		t.Fatalf("clients 0/4/8 replicas = %s/%s/%s, want all distinct", c0.slot, c4.slot, c8.slot)
	}
	c1 := sys.Client(1).(*crdtClient)
	if c0.key == c1.key {
		t.Fatalf("clients 0/1 share key %s, want distinct keys", c0.key)
	}
}

// TestKeysSweepThroughputGrows is the scaling acceptance check: with a
// fixed per-key client load, aggregate update throughput must grow as the
// keyspace widens, because keys are independent replication instances.
// The per-key load is latency-bound (emulated network delay), the regime
// in which sharding pays: a single key's closed-loop clients cannot use
// the hardware, many keys together can.
func TestKeysSweepThroughputGrows(t *testing.T) {
	s := Scale{
		Duration: 400 * time.Millisecond,
		Warmup:   100 * time.Millisecond,
		Replicas: 3,
		Net:      NetProfile{MinDelay: 200 * time.Microsecond, MaxDelay: 600 * time.Microsecond, Seed: 1},
	}
	points, err := RunKeysSweep(s, []int{1, 8}, 2, 0.5, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 2 {
		t.Fatalf("points = %d", len(points))
	}
	one, many := points[0], points[1]
	if one.UpdatesPerSec <= 0 || many.UpdatesPerSec <= 0 {
		t.Fatalf("no update throughput recorded: %+v vs %+v", one, many)
	}
	if many.UpdatesPerSec <= one.UpdatesPerSec {
		t.Fatalf("aggregate update throughput did not grow with keys: 1 key %.0f/s vs 8 keys %.0f/s",
			one.UpdatesPerSec, many.UpdatesPerSec)
	}
	if many.Result.Throughput <= one.Result.Throughput {
		t.Fatalf("aggregate throughput did not grow with keys: %.0f vs %.0f",
			one.Result.Throughput, many.Result.Throughput)
	}
}

func TestFigureKeys(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	s := Scale{
		Duration: 150 * time.Millisecond,
		Warmup:   30 * time.Millisecond,
		Batch:    2 * time.Millisecond,
		Replicas: 3,
		Net:      NetProfile{Seed: 1},
	}
	var buf bytes.Buffer
	if err := FigureKeys(&buf, s, []int{1, 4}, 2); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"Figure K", "without batching", "with per-key", "updates/s"} {
		if !strings.Contains(out, want) {
			t.Fatalf("figure output missing %q:\n%s", want, out)
		}
	}
}
