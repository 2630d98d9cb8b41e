package bench

// The overload figure: what admission control buys when clients offer
// more load than the cluster should accept. Closed-loop workers drive
// the served store through the real TCP client path at offered
// concurrencies well past the in-flight caps, once with admission
// control engaged (small MaxTotalInFlight, excess answered StatusBusy
// and absorbed by client backoff) and once with the caps far out of
// reach (everything admitted and queued). The two series make the
// trade visible: shedding keeps the executing set small, so completed
// operations keep bounded tails, at the price of busy retries;
// queueing admits everything and lets the tail grow with the offered
// load.

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sync"
	"time"

	"crdtsmr/client"
	"crdtsmr/internal/server"
)

// Admission limits for the "admission on" series. Deliberately small so
// the sweep's upper offered loads overshoot them severalfold; the "off"
// series uses the server defaults (1024 conns, 4096 in flight), which
// the sweep never approaches.
const (
	overloadPerConnInFlight = 8  // per-connection pipelining cap
	overloadTotalInFlight   = 16 // per-server executing cap
	overloadKeys            = 8
	overloadReplicas        = 3
)

// overloadResult is one (offered load, admission setting) measurement.
type overloadResult struct {
	Offered    int
	Completed  int
	Goodput    float64 // completed operations per second of measured window
	Lat        LatencyStats
	ShedReqs   uint64 // server-side StatusBusy sheds (admission on only)
	ShedConns  uint64
	BusyGaveUp int // operations whose client exhausted retries on ErrBusy
}

// runOverload drives `offered` closed-loop workers against a fresh
// 3-replica served store for the measured window and reports goodput
// and completion-latency statistics. Workers share one pooled client
// per server; an operation that exhausts the client's retry budget on
// ErrBusy is counted as given up — not an error — and the worker moves
// on, which is exactly the contract StatusBusy promises (the operation
// provably did not execute).
func runOverload(offered int, opts server.Options, duration, warmup time.Duration, net NetProfile) (overloadResult, error) {
	sys, err := NewCRDTSystem(overloadReplicas, CRDTOpts{Keys: overloadKeys}, net)
	if err != nil {
		return overloadResult{}, err
	}
	defer sys.Close()
	// The retry budget absorbs shedding: backoff long enough to let
	// the executing set drain, attempts plentiful enough that giving
	// up stays the exception even at the top of the sweep.
	// Pool 4 × per-conn cap 8 lets the connections collectively offer
	// twice the server-wide cap, so the global tier actually trips:
	// per-conn semaphores alone would otherwise gate the executing
	// set at exactly MaxTotalInFlight and nothing would ever shed.
	front, err := frontNodes(sys.clust.Nodes(), opts,
		client.WithPool(4),
		client.WithRetryPolicy(client.RetryPolicy{MaxAttempts: 8, Backoff: time.Millisecond, MaxBackoff: 20 * time.Millisecond}))
	if err != nil {
		return overloadResult{}, err
	}
	defer front.Close()
	clients, keys := front.clients, sys.keys

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	start := time.Now()
	measureFrom := start.Add(warmup)
	stopAt := start.Add(warmup + duration)

	type workerStats struct {
		lat    []time.Duration
		gaveUp int
	}
	stats := make([]workerStats, offered)
	errc := make(chan error, offered)
	var wg sync.WaitGroup
	for i := 0; i < offered; i++ {
		i := i
		cl := clients[i%len(clients)]
		ctr := cl.Counter(keys[i%len(keys)])
		wg.Add(1)
		go func() {
			defer wg.Done()
			rec := &stats[i]
			for op := 0; ; op++ {
				opStart := time.Now()
				if opStart.After(stopAt) {
					return
				}
				var err error
				if op%3 == 2 {
					_, err = ctr.Value(ctx)
				} else {
					err = ctr.Inc(ctx, 1)
				}
				if opStart.Before(measureFrom) {
					continue
				}
				switch {
				case err == nil:
					rec.lat = append(rec.lat, time.Since(opStart))
				case errors.Is(err, client.ErrBusy):
					rec.gaveUp++
				default:
					errc <- fmt.Errorf("worker %d op %d: %w", i, op, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(measureFrom)
	select {
	case err := <-errc:
		return overloadResult{}, err
	default:
	}

	res := overloadResult{Offered: offered}
	var all []time.Duration
	for i := range stats {
		all = append(all, stats[i].lat...)
		res.BusyGaveUp += stats[i].gaveUp
	}
	res.Completed = len(all)
	res.Goodput = float64(res.Completed) / elapsed.Seconds()
	res.Lat = summarize(all)
	for _, srv := range front.servers {
		res.ShedReqs += srv.ShedRequests()
		res.ShedConns += srv.ShedConns()
	}
	return res, nil
}

// FigureOverload sweeps offered closed-loop load past the admission
// limits and reports goodput and p99 completion latency with admission
// control on (tight caps, StatusBusy sheds, client backoff) and off
// (caps out of reach, everything queues). Emits a BENCH_overload.json
// record via the returned FigureJSON.
func FigureOverload(w io.Writer, s Scale) (*FigureJSON, error) {
	sweep := s.Clients
	fig := &FigureJSON{
		Schema: FigureSchema,
		Figure: "overload",
		GitSHA: buildGitSHA(),
		Params: map[string]any{
			"workload":     "closed-loop 2:1 inc:read, 8 keys, pooled TCP clients",
			"replicas":     overloadReplicas,
			"offered":      sweep,
			"max_inflight": overloadPerConnInFlight,
			"max_total":    overloadTotalInFlight,
			"duration_ms":  s.Duration.Milliseconds(),
			"min_delay_us": s.Net.MinDelay.Microseconds(),
			"max_delay_us": s.Net.MaxDelay.Microseconds(),
			"seed":         s.Net.Seed,
		},
	}
	goodOn := FigureSeries{Name: "goodput, admission on", Unit: "ops/s"}
	goodOff := FigureSeries{Name: "goodput, admission off", Unit: "ops/s"}
	p99On := FigureSeries{Name: "p99, admission on", Unit: "us"}
	p99Off := FigureSeries{Name: "p99, admission off", Unit: "us"}
	sheds := FigureSeries{Name: "requests shed", Unit: "count"}

	fmt.Fprintf(w, "Figure overload: goodput and p99 vs offered load (%d replicas, per-server cap %d in flight when on)\n",
		overloadReplicas, overloadTotalInFlight)
	fmt.Fprintf(w, "  %-10s %14s %12s %14s %12s %10s %10s\n",
		"offered", "goodput off", "p99 off", "goodput on", "p99 on", "shed", "gave up")

	for _, offered := range sweep {
		off, err := runOverload(offered, server.Options{}, s.Duration, s.Warmup, s.Net)
		if err != nil {
			return nil, err
		}
		on, err := runOverload(offered, server.Options{
			MaxInFlight:      overloadPerConnInFlight,
			MaxTotalInFlight: overloadTotalInFlight,
		}, s.Duration, s.Warmup, s.Net)
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(w, "  %-10d %14.0f %12s %14.0f %12s %10d %10d\n",
			offered, off.Goodput, fmtDur(off.Lat.P99), on.Goodput, fmtDur(on.Lat.P99),
			on.ShedReqs, on.BusyGaveUp)

		x := float64(offered)
		goodOn.X, goodOn.Y = append(goodOn.X, x), append(goodOn.Y, on.Goodput)
		goodOff.X, goodOff.Y = append(goodOff.X, x), append(goodOff.Y, off.Goodput)
		p99On.X, p99On.Y = append(p99On.X, x), append(p99On.Y, float64(on.Lat.P99.Microseconds()))
		p99Off.X, p99Off.Y = append(p99Off.X, x), append(p99Off.Y, float64(off.Lat.P99.Microseconds()))
		sheds.X, sheds.Y = append(sheds.X, x), append(sheds.Y, float64(on.ShedReqs))
	}
	fig.Series = []FigureSeries{goodOff, goodOn, p99Off, p99On, sheds}
	return fig, nil
}
