package bench

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

// tinyScale keeps harness tests fast.
func tinyScale() Scale {
	return Scale{
		Duration: 250 * time.Millisecond,
		Warmup:   50 * time.Millisecond,
		Clients:  []int{4},
		Batch:    2 * time.Millisecond,
		Replicas: 3,
		Net:      NetProfile{Seed: 1}, // zero delay for speed
	}
}

func TestRunCRDTSystem(t *testing.T) {
	sys, err := NewCRDTSystem(3, CRDTOpts{}, NetProfile{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	res := Run(sys, RunConfig{Clients: 4, ReadFraction: 0.5, Duration: 300 * time.Millisecond, Warmup: 50 * time.Millisecond})
	if res.Ops == 0 {
		t.Fatal("no operations completed")
	}
	if res.Errors > 0 {
		t.Fatalf("%d errors in failure-free run", res.Errors)
	}
	if res.ReadLat.Count == 0 || res.UpdateLat.Count == 0 {
		t.Fatalf("one-sided workload recorded: %+v", res)
	}
	if len(res.ReadRTTs) == 0 {
		t.Fatal("no RTT samples for CRDT Paxos reads")
	}
	if res.Throughput <= 0 {
		t.Fatal("throughput not computed")
	}
}

func TestRunRaftSystem(t *testing.T) {
	sys, err := NewRaftSystem(3, NetProfile{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	res := Run(sys, RunConfig{Clients: 3, ReadFraction: 0.5, Duration: 400 * time.Millisecond, Warmup: 200 * time.Millisecond})
	if res.Ops == 0 {
		t.Fatal("no operations completed")
	}
}

func TestRunPaxosSystem(t *testing.T) {
	sys, err := NewPaxosSystem(3, NetProfile{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	res := Run(sys, RunConfig{Clients: 3, ReadFraction: 0.5, Duration: 400 * time.Millisecond, Warmup: 200 * time.Millisecond})
	if res.Ops == 0 {
		t.Fatal("no operations completed")
	}
}

func TestRunWithFailureInjection(t *testing.T) {
	sys, err := NewCRDTSystem(3, CRDTOpts{}, NetProfile{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	res := Run(sys, RunConfig{
		Clients:      6,
		ReadFraction: 0.9,
		Duration:     500 * time.Millisecond,
		Warmup:       50 * time.Millisecond,
		Interval:     100 * time.Millisecond,
		FailAfter:    250 * time.Millisecond,
		FailReplica:  2,
	})
	if res.Ops == 0 {
		t.Fatal("no ops despite minority failure")
	}
	if len(res.Timeline) == 0 {
		t.Fatal("no timeline recorded")
	}
	// Ops keep completing after the failure (continuous availability).
	post := 0
	for _, iv := range res.Timeline[3:] {
		post += iv.Ops
	}
	if post == 0 {
		t.Fatal("no operations after the failure: availability lost")
	}
}

func TestLatencyStats(t *testing.T) {
	samples := make([]time.Duration, 100)
	for i := range samples {
		samples[i] = time.Duration(i+1) * time.Millisecond
	}
	st := summarize(samples)
	if st.Count != 100 || st.P50 != 50*time.Millisecond || st.P95 != 95*time.Millisecond || st.Max != 100*time.Millisecond {
		t.Fatalf("stats = %+v", st)
	}
	if st := summarize(nil); st.Count != 0 {
		t.Fatalf("empty stats = %+v", st)
	}
}

func TestRTTHistogramCDF(t *testing.T) {
	h := RTTHistogram{1: 80, 2: 15, 3: 5}
	cdf := h.CDF(5)
	if cdf[0] != 80 || cdf[1] != 95 || cdf[2] != 100 || cdf[4] != 100 {
		t.Fatalf("cdf = %v", cdf)
	}
	empty := RTTHistogram{}
	if got := empty.CDF(3); got[2] != 0 {
		t.Fatalf("empty cdf = %v", got)
	}
}

func TestMedianThroughput(t *testing.T) {
	if got := medianThroughput([]int{100, 300, 200}, time.Second); got != 200 {
		t.Fatalf("median = %f", got)
	}
	if got := medianThroughput([]int{100, 200}, time.Second); got != 150 {
		t.Fatalf("even median = %f", got)
	}
	if got := medianThroughput(nil, time.Second); got != 0 {
		t.Fatalf("empty median = %f", got)
	}
	if got := medianThroughput([]int{500}, 500*time.Millisecond); got != 1000 {
		t.Fatalf("interval scaling = %f", got)
	}
}

func TestFigure3Driver(t *testing.T) {
	var buf bytes.Buffer
	headline, err := Figure3(&buf, tinyScale(), []int{8})
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "Figure 3") || !strings.Contains(out, "with 2ms batching") {
		t.Fatalf("unexpected output:\n%s", out)
	}
	if headline <= 0 {
		t.Fatalf("headline = %f", headline)
	}
}

func TestFigure4Driver(t *testing.T) {
	var buf bytes.Buffer
	if err := Figure4(&buf, tinyScale(), 8); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "failure") {
		t.Fatalf("unexpected output:\n%s", buf.String())
	}
}
