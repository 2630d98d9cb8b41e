package bench

import (
	"io"
	"testing"
	"time"
)

// TestFigureLeaseFastPath is the acceptance run for the round-lease
// figure: on the widest cluster in the sweep the lease must actually
// fire (hits > 0) and cut the median read-after-write latency by at
// least 30%. The run is virtual-time and latency-bound (FigureLease floors
// the emulated hop delay), so the assertion holds on a single-CPU box.
func TestFigureLeaseFastPath(t *testing.T) {
	s := Scale{
		Duration: 900 * time.Millisecond, // 360 sessions per run
		Seed:     1,                      // zero Net is below the floor: FigureLease substitutes the LAN profile
	}
	fig, err := FigureLease(io.Discard, s)
	if err != nil {
		t.Fatal(err)
	}
	if fig.Schema != FigureSchema || fig.Figure != "lease" {
		t.Fatalf("figure header = %+v", fig)
	}

	hits := fig.SeriesNamed("lease hits")
	off, on := fig.SeriesNamed("read p50, lease off"), fig.SeriesNamed("read p50, lease on")
	if hits == nil || off == nil || on == nil {
		t.Fatalf("missing series: %+v", fig.Series)
	}
	// Assert on the last sweep point — the widest cluster, where the
	// lease-off vote-phase penalty is largest and the margin is widest.
	last := len(off.Y) - 1
	if last < 0 || len(on.Y) != len(off.Y) || len(hits.Y) != len(off.Y) {
		t.Fatalf("ragged series: off=%v on=%v hits=%v", off.Y, on.Y, hits.Y)
	}
	if hits.Y[last] == 0 {
		t.Fatalf("lease never fired: hits=%v", hits.Y)
	}
	if off.Y[last] <= 0 || on.Y[last] <= 0 {
		t.Fatalf("empty p50 samples: off=%v on=%v", off.Y, on.Y)
	}
	reduction := 1 - on.Y[last]/off.Y[last]
	if reduction < 0.30 {
		t.Fatalf("lease cut read p50 by %.0f%% (off %v µs, on %v µs), want ≥ 30%%",
			reduction*100, off.Y[last], on.Y[last])
	}
}
