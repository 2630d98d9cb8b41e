package client_test

// Crash/restart chaos: a 5-node durable cluster (every node snapshots to
// its own data dir) loses a minority to crashes mid-workload, gets them
// back via Restart — volatile state gone, keyspace rehydrated from disk —
// then survives a rolling restart of every node, all while concurrent
// clients work several keys over the real TCP serving path. Every
// completed operation lands in a keyed history checked with the per-key
// linearizability checker: the paper's guarantee must hold across
// process-death recovery, not just clean runs and partitions. The keys
// are padded above the replica wire's size switch, so the digest caches
// must survive the Restart/ForgetPeer interplay too.

import (
	"context"
	"sync"
	"testing"
	"time"

	"crdtsmr/client"
	"crdtsmr/internal/checker"
	"crdtsmr/internal/cluster"
	"crdtsmr/internal/transport"
)

func TestChaosCrashRestartLinearizable(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second chaos test")
	}
	const (
		replicas       = 5
		opsEach        = 6
		requestTimeout = 500 * time.Millisecond
	)
	cc := startServedClusterWith(t, replicas, 11, requestTimeout, func(cfg *cluster.Config) {
		padKeys(cfg)
		cfg.DataDir = t.TempDir()
	})
	n := cc.ids
	keys := []string{"obj/0", "obj/1", "obj/2"}
	hist := checker.NewKeyedHistory()
	totals := make(map[string]int)
	phases := 0
	record := func(m map[string]int) {
		phases++
		for k, v := range m {
			totals[k] += v
		}
	}
	restart := func(id transport.NodeID) {
		t.Helper()
		if err := cc.cl.Restart(id); err != nil {
			t.Fatalf("restart %s: %v", id, err)
		}
	}

	// Phase 0: healthy cluster, clients spread over every server.
	record(workload(t, hist, cc.addrsOf(n...), keys, opsEach))

	// Phase 1: crash the minority {n4,n5} while a workload is running
	// against the majority, then Restart them before the workload ends —
	// recovery happens mid-traffic, not in a quiet cluster.
	var wg sync.WaitGroup
	var phase1 map[string]int
	wg.Add(1)
	go func() {
		defer wg.Done()
		phase1 = workload(t, hist, cc.addrsOf(n[0], n[1], n[2]), keys, opsEach)
	}()
	cc.cl.Crash(n[3])
	cc.cl.Crash(n[4])
	restart(n[3])
	restart(n[4])
	wg.Wait()
	record(phase1)

	// The rejoined minority must serve linearizable values straight away.
	record(workload(t, hist, cc.addrsOf(n...), keys, opsEach))

	// Phase 2: rolling restart — every node in turn is crashed, the
	// remaining four carry a recorded workload, and the node comes back
	// from its snapshot dir before the next one goes down.
	for i, id := range n {
		cc.cl.Crash(id)
		others := make([]transport.NodeID, 0, replicas-1)
		for j, oid := range n {
			if j != i {
				others = append(others, oid)
			}
		}
		record(workload(t, hist, cc.addrsOf(others...), keys, opsEach))
		restart(id)
	}

	// Final phase through every server, then one read of every key via
	// every node individually: each must return the exact total.
	record(workload(t, hist, cc.addrsOf(n...), keys, opsEach))
	for _, id := range n {
		c, err := client.New([]string{cc.addrs[id]},
			client.WithRetryPolicy(client.RetryPolicy{MaxAttempts: 8, Backoff: 5 * time.Millisecond}))
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
		for _, key := range keys {
			h := hist.For(key)
			opID := h.Begin(checker.OpRead)
			v, err := padded(ctx, c.Counter(key))
			if err != nil {
				h.Discard(opID)
				t.Fatalf("final read of %s via %s: %v", key, id, err)
			}
			h.End(opID, v)
			if v != uint64(totals[key]) {
				t.Errorf("final read of %s via %s = %d, want %d", key, id, v, totals[key])
			}
		}
		cancel()
	}

	wantOps := len(keys)*(phases*2*opsEach) + replicas*len(keys)
	if got := hist.Ops(); got != wantOps {
		t.Fatalf("recorded %d completed ops, want %d", got, wantOps)
	}
	if err := checker.CheckKeyedLinearizable(hist); err != nil {
		t.Fatalf("history across crash/restart cycles is not linearizable: %v", err)
	}
}
