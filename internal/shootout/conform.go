package shootout

import (
	"fmt"
	"math/rand"
	"time"

	"crdtsmr/internal/checker"
)

// ConformConfig parameterizes one conformance run: Ops operations on a
// single hot counter key, issued from seeded random replicas at a fixed
// virtual cadence, under the configured fault model.
type ConformConfig struct {
	Seed     int64
	Replicas int
	Ops      int
	ReadFrac float64 // fraction of ops that are reads (default 0.5)
	Net      Net

	// Partitions > 0 inserts that many partition episodes into the run:
	// a rotating minority is cut off from the rest for partitionFor, then
	// healed. Episodes are spread evenly across the injection window.
	Partitions int
}

// partitionFor is how long each partition episode lasts.
const partitionFor = 4 * ElectionTimeout

// ConformResult is the evidence from one run, for the caller to judge.
type ConformResult struct {
	Ops       []checker.Op // completed + abandoned ops, checker order
	Incs      int          // increments that completed successfully
	Abandoned int          // increments whose fate is unknown
	Reads     int          // reads that completed successfully
	FailedRds int          // reads that errored (discarded, no obligation)
	// FinalReads holds one post-quiescence read per replica, issued
	// sequentially (each completes before the next begins).
	FinalReads []int64
	// AppliedLogs holds each replica's applied-command log when the backend
	// records one (log-based protocols), else nil.
	AppliedLogs [][]string
}

// Conform drives one backend through a seeded fault schedule on a single
// counter key and collects a linearizability history: successful ops are
// recorded with End, failed reads are discarded (effect-free), and failed
// increments are abandoned — their effect may still land, so they raise
// the reads' upper bound forever after. The caller asserts
// checker.CheckCounterLinearizable over Result.Ops and whatever
// convergence properties the protocol promises for FinalReads.
func Conform(spec Spec, cfg ConformConfig) (*ConformResult, error) {
	if cfg.Replicas <= 0 || cfg.Ops <= 0 {
		return nil, fmt.Errorf("shootout: bad conform config %+v", cfg)
	}
	if cfg.ReadFrac == 0 {
		cfg.ReadFrac = 0.5
	}
	sim := NewSim(cfg.Seed, cfg.Net)
	backend, err := spec.New(sim, cfg.Replicas)
	if err != nil {
		return nil, err
	}
	const key = "c-conform"
	rng := rand.New(rand.NewSource(cfg.Seed ^ 0x10c4))
	hist := checker.NewHistory()
	res := &ConformResult{}

	// Injection schedule: one op every gap, starting after settle. Fixed
	// times keep the schedule independent of op completion, so concurrency
	// between ops (the interesting part of a linearizability history)
	// arises naturally whenever an op outlives the gap.
	const gap = 2 * time.Millisecond
	settled := 0
	for i := 0; i < cfg.Ops; i++ {
		at := settleTime + time.Duration(i)*gap
		replica := rng.Intn(cfg.Replicas)
		isRead := rng.Float64() < cfg.ReadFrac
		sim.After(at-sim.Now(), func() {
			if isRead {
				id := hist.Begin(checker.OpRead)
				backend.Read(replica, key, func(val int64, err error) {
					settled++
					if err != nil {
						res.FailedRds++
						hist.Discard(id)
						return
					}
					res.Reads++
					hist.End(id, uint64(val))
				})
				return
			}
			id := hist.Begin(checker.OpInc)
			backend.Inc(replica, key, func(err error) {
				settled++
				if err != nil {
					res.Abandoned++
					hist.Abandon(id) // fate unknown: may still take effect
					return
				}
				res.Incs++
				hist.End(id, 0)
			})
		})
	}

	// Partition episodes: cut a rotating minority off for partitionFor.
	window := time.Duration(cfg.Ops) * gap
	for ep := 0; ep < cfg.Partitions; ep++ {
		at := settleTime + window*time.Duration(ep)/time.Duration(cfg.Partitions)
		minority := (cfg.Replicas - 1) / 2
		members := Members(cfg.Replicas)
		cut := members[(ep*minority)%cfg.Replicas : (ep*minority)%cfg.Replicas+1]
		if minority > 1 {
			lo := (ep * minority) % cfg.Replicas
			cut = nil
			for k := 0; k < minority; k++ {
				cut = append(cut, members[(lo+k)%cfg.Replicas])
			}
		}
		sim.After(at-sim.Now(), func() {
			for _, a := range cut {
				for _, m := range members {
					in := false
					for _, c := range cut {
						if c == m {
							in = true
						}
					}
					if !in {
						sim.Fab.Block(a, m)
						sim.Fab.Block(m, a)
					}
				}
			}
			sim.After(partitionFor, func() {
				for _, a := range cut {
					for _, m := range members {
						sim.Fab.Unblock(a, m)
						sim.Fab.Unblock(m, a)
					}
				}
			})
		})
	}

	// Drain: every op settles by its OpTimeout guard, so this terminates.
	if !sim.RunUntilDone(virtualCap, func() bool { return settled == cfg.Ops }) {
		return nil, fmt.Errorf("%s: conform run stalled (%d/%d ops settled)", spec.Name, settled, cfg.Ops)
	}
	// Quiesce past any last partition heal and in-flight retransmissions.
	sim.RunUntil(sim.Now() + 2*LeaseDuration)

	// Final sequential reads, one per replica, each completing before the
	// next begins — these join the history, so the checker also enforces
	// that post-quiescence reads are mutually consistent with everything.
	for r := 0; r < cfg.Replicas; r++ {
		val, err := finalRead(sim, backend, hist, r, key)
		if err != nil {
			return nil, fmt.Errorf("%s: final read at replica %d: %w", spec.Name, r, err)
		}
		res.FinalReads = append(res.FinalReads, val)
	}

	if lg, ok := backend.(AppliedLogger); ok {
		for r := 0; r < cfg.Replicas; r++ {
			res.AppliedLogs = append(res.AppliedLogs, lg.AppliedLog(r))
		}
	}
	res.Ops = hist.Ops()
	return res, nil
}

// finalRead issues one read and runs the sim until it settles, retrying a
// few times (bounded) on error — by quiescence reads should succeed.
func finalRead(sim *Sim, backend Backend, hist *checker.History, replica int, key string) (int64, error) {
	var lastErr error
	for attempt := 0; attempt < 5; attempt++ {
		done := false
		var val int64
		var opErr error
		id := hist.Begin(checker.OpRead)
		backend.Read(replica, key, func(v int64, err error) {
			done, val, opErr = true, v, err
		})
		if !sim.RunUntilDone(virtualCap, func() bool { return done }) {
			hist.Discard(id)
			return 0, fmt.Errorf("read stalled")
		}
		if opErr == nil {
			hist.End(id, uint64(val))
			return val, nil
		}
		hist.Discard(id)
		lastErr = opErr
		sim.RunUntil(sim.Now() + 2*ElectionTimeout)
	}
	return 0, lastErr
}
