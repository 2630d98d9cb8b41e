package bench

import (
	"context"
	"fmt"
	"io"
	"time"
)

// FigureMembers measures the protocol across an online membership change
// (beyond the paper; docs/PROTOCOL.md §6): a closed-loop workload at 10 %
// updates runs for eight intervals while an admin grows the group by a
// fresh joiner (whose state bootstrap is the reconfiguration push itself)
// and then reconfigures a boot member out. The paper's no-leader argument
// for Figure 4 extends to reconfiguration: there is no election to wait
// out, so the timeline should show a latency blip at each commit but no
// unavailability window.
//
// The figure is its own guard, so the CI smoke run fails loudly:
//
//   - stall guard: every full measured interval must complete operations;
//   - shed guard: client errors (ErrNotMember redirects off the removed
//     member) must stay a small multiple of the client count — bounded
//     fail-over, not thrash.
func FigureMembers(w io.Writer, s Scale, clients int) (*FigureJSON, error) {
	if clients <= 0 {
		clients = 64
	}
	sys, err := NewCRDTSystem(s.Replicas, CRDTOpts{}, s.Net)
	if err != nil {
		return nil, err
	}
	defer sys.Close()

	duration := 4 * s.Duration // the timeline needs several intervals
	interval := duration / 8
	growAt := 2 * interval
	shrinkAt := 5 * interval
	removed := sys.ids[0]

	// The admin runs beside the workload, serialized like a real operator:
	// the shrink is not proposed until the grow round has committed.
	type adminReport struct {
		growLat, shrinkLat time.Duration
		err                error
	}
	adminCh := make(chan adminReport, 1)
	start := time.Now()
	go func() {
		var rep adminReport
		ctx, cancel := context.WithTimeout(context.Background(), duration+30*time.Second)
		defer cancel()
		time.Sleep(time.Until(start.Add(s.Warmup + growAt)))
		t0 := time.Now()
		if err := sys.Grow(ctx, "m1"); err != nil {
			rep.err = fmt.Errorf("grow m1: %w", err)
			adminCh <- rep
			return
		}
		rep.growLat = time.Since(t0)
		time.Sleep(time.Until(start.Add(s.Warmup + shrinkAt)))
		t0 = time.Now()
		if err := sys.Shrink(ctx, removed); err != nil {
			rep.err = fmt.Errorf("shrink %s: %w", removed, err)
			adminCh <- rep
			return
		}
		rep.shrinkLat = time.Since(t0)
		adminCh <- rep
	}()

	res := Run(sys, RunConfig{
		Clients:      clients,
		ReadFraction: 0.90,
		Duration:     duration,
		Warmup:       s.Warmup,
		Interval:     interval,
	})
	admin := <-adminCh
	if admin.err != nil {
		return nil, admin.err
	}

	fmt.Fprintf(w, "Figure members: p95 latency per interval across an online membership change (%d clients, 10%% updates)\n", clients)
	fmt.Fprintf(w, "\n  grow commit %s (3→4, joiner m1 bootstrapped by the round), shrink commit %s (4→3, %s removed)\n",
		fmtDur(admin.growLat), fmtDur(admin.shrinkLat), removed)
	fmt.Fprintf(w, "  %-10s %14s %14s %10s\n", "interval", "read p95", "update p95", "ops")
	timeline := res.Timeline
	for len(timeline) > 0 && timeline[len(timeline)-1].Ops == 0 {
		timeline = timeline[:len(timeline)-1] // trailing partial interval
	}
	growIv := int(growAt / interval)
	shrinkIv := int(shrinkAt / interval)
	for _, iv := range timeline {
		marker := ""
		switch iv.Index {
		case growIv:
			marker = "  <- member-add m1"
		case shrinkIv:
			marker = fmt.Sprintf("  <- member-remove %s", removed)
		}
		fmt.Fprintf(w, "  %-10d %14s %14s %10d%s\n", iv.Index, fmtDur(iv.ReadP95), fmtDur(iv.UpdateP95), iv.Ops, marker)
	}
	fmt.Fprintf(w, "  median throughput %.0f req/s, %d ops, %d client errors (fail-over off %s)\n",
		res.Throughput, res.Ops, res.Errors, removed)

	// Stall guard: reconfiguration must never close the availability
	// window — a full interval with zero completed operations means it did.
	full := timeline
	if len(full) > 1 {
		full = full[:len(full)-1]
	}
	for _, iv := range full {
		if iv.Ops == 0 {
			return nil, fmt.Errorf("bench: members stall guard: interval %d completed no operations", iv.Index)
		}
	}
	// Shed guard: the removed member refuses with ErrNotMember and clients
	// fail over once or twice; anything beyond a small multiple of the
	// client count means they thrashed instead of settling.
	if res.Errors > 6*clients {
		return nil, fmt.Errorf("bench: members shed guard: %d client errors for %d clients", res.Errors, clients)
	}

	fig := &FigureJSON{
		Schema: FigureSchema,
		Figure: "members",
		GitSHA: buildGitSHA(),
		Params: map[string]any{
			"clients":          clients,
			"replicas":         s.Replicas,
			"read_fraction":    0.90,
			"interval_ms":      float64(interval) / float64(time.Millisecond),
			"grow_interval":    growIv,
			"shrink_interval":  shrinkIv,
			"removed_member":   string(removed),
			"grow_commit_ms":   float64(admin.growLat) / float64(time.Millisecond),
			"shrink_commit_ms": float64(admin.shrinkLat) / float64(time.Millisecond),
			"errors":           res.Errors,
			"throughput":       res.Throughput,
		},
	}
	ops := FigureSeries{Name: "ops", Unit: "ops/interval"}
	readP95 := FigureSeries{Name: "read_p95", Unit: "ms"}
	updateP95 := FigureSeries{Name: "update_p95", Unit: "ms"}
	for _, iv := range timeline {
		x := float64(iv.Index)
		ops.X = append(ops.X, x)
		ops.Y = append(ops.Y, float64(iv.Ops))
		readP95.X = append(readP95.X, x)
		readP95.Y = append(readP95.Y, float64(iv.ReadP95)/float64(time.Millisecond))
		updateP95.X = append(updateP95.X, x)
		updateP95.Y = append(updateP95.Y, float64(iv.UpdateP95)/float64(time.Millisecond))
	}
	fig.Series = []FigureSeries{ops, readP95, updateP95}
	return fig, nil
}
