package client_test

// The overload scenario: far more client concurrency than a small
// cluster's admission limits allow, all planes squeezed at once — the
// connection cap (busy-close handshakes), the server-wide in-flight cap
// (StatusBusy sheds) and the per-connection pipelining cap. The system's
// obligation under that load is degradation, not failure: every admitted
// operation completes, the shed ones retry with backoff and eventually
// land, every worker makes progress, the replica wire never wedges, and
// the full recorded history stays per-key linearizable.

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"crdtsmr/client"
	"crdtsmr/internal/checker"
	"crdtsmr/internal/cluster"
	"crdtsmr/internal/core"
	"crdtsmr/internal/crdt"
	"crdtsmr/internal/server"
	"crdtsmr/internal/transport"
)

// startOverloadCluster runs n replicas with deliberately small admission
// limits, returning the servers so the test can read the shed counters.
func startOverloadCluster(t *testing.T, n int, opts server.Options) (addrs []string, servers []*server.Server, cl *cluster.Cluster) {
	t.Helper()
	mesh := transport.NewMesh(transport.WithSeed(23))
	ids := make([]transport.NodeID, n)
	for i := range ids {
		ids[i] = transport.NodeID(fmt.Sprintf("n%d", i+1))
	}
	cl, err := cluster.New(mesh, cluster.Config{
		Members:            ids,
		Initial:            crdt.NewGCounter(),
		InitialForKey:      server.TypedKeyInitial(crdt.TypeGCounter),
		Options:            core.DefaultOptions(),
		RetransmitInterval: 20 * time.Millisecond,
	})
	if err != nil {
		mesh.Close()
		t.Fatal(err)
	}
	for _, id := range ids {
		srv, err := server.Start(cl.Node(id), "127.0.0.1:0", opts)
		if err != nil {
			t.Fatal(err)
		}
		servers = append(servers, srv)
		addrs = append(addrs, srv.Addr())
	}
	t.Cleanup(func() {
		for _, srv := range servers {
			_ = srv.Close()
		}
		cl.Close()
		mesh.Close()
	})
	return addrs, servers, cl
}

func TestOverloadScenario(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second overload scenario")
	}
	const (
		replicas         = 3
		maxConns         = 6 // per server; the steady workload holds 4
		maxInFlight      = 4 // per connection
		maxTotalInFlight = 8 // per server; the steady workload offers up to 16
		clientsPerServer = 4
		workersPerClient = 4 // 48 workers total, pipelining over 12 connections
		opsPerWorker     = 10
		oneShotProbes    = 24 // short-lived conns racing the 2 spare slots
	)
	addrs, servers, _ := startOverloadCluster(t, replicas, server.Options{
		RequestTimeout:   10 * time.Second,
		MaxInFlight:      maxInFlight,
		MaxConns:         maxConns,
		MaxTotalInFlight: maxTotalInFlight,
	})
	keys := []string{"obj/0", "obj/1", "obj/2", "obj/3"}
	hist := checker.NewKeyedHistory()
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()

	// The steady workload: per server, 4 single-connection clients each
	// driving 4 pipelined workers — 16 offered in-flight against an
	// admission limit of 8, so the server must shed, and the workers'
	// backoff must absorb it. Every completed operation is recorded.
	var wg sync.WaitGroup
	var incs [4]atomic.Int64 // completed increments per key
	var slowest atomic.Int64 // worst single-op latency, nanoseconds
	for s := 0; s < replicas; s++ {
		for i := 0; i < clientsPerServer; i++ {
			c, err := client.New([]string{addrs[s]},
				client.WithPool(1),
				client.WithRetryPolicy(client.RetryPolicy{MaxAttempts: 50, Backoff: time.Millisecond, MaxBackoff: 20 * time.Millisecond}),
				client.WithRequestTimeout(30*time.Second))
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			for w := 0; w < workersPerClient; w++ {
				keyIdx := (s*clientsPerServer*workersPerClient + i*workersPerClient + w) % len(keys)
				wg.Add(1)
				go func(c *client.Client, keyIdx int) {
					defer wg.Done()
					key := keys[keyIdx]
					ctr := c.Counter(key)
					h := hist.For(key)
					for op := 0; op < opsPerWorker; op++ {
						start := time.Now()
						if op%3 == 2 {
							id := h.Begin(checker.OpRead)
							v, err := ctr.Value(ctx)
							if err != nil {
								h.Discard(id)
								t.Errorf("read %s under overload: %v", key, err)
								return
							}
							h.End(id, v)
						} else {
							id := h.Begin(checker.OpInc)
							if err := ctr.Inc(ctx, 1); err != nil {
								t.Errorf("inc %s under overload: %v", key, err)
								return
							}
							h.End(id, 0)
							incs[keyIdx].Add(1)
						}
						if d := int64(time.Since(start)); d > slowest.Load() {
							slowest.Store(d)
						}
					}
				}(c, keyIdx)
			}
		}
	}

	// One-shot probes racing the two spare connection slots of server 0:
	// exercised both ways, some get the busy-close handshake (counted
	// below), and those that exhaust their budget must surface ErrBusy —
	// never an uncertain fate, since a refused connection executed
	// nothing. Successful probe reads are recorded like any other.
	var probeBusy atomic.Int64
	for p := 0; p < oneShotProbes; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			c, err := client.New([]string{addrs[0]},
				client.WithPool(1),
				client.WithRetryPolicy(client.RetryPolicy{MaxAttempts: 3, Backoff: time.Millisecond, MaxBackoff: 4 * time.Millisecond}),
				client.WithRequestTimeout(30*time.Second))
			if err != nil {
				t.Error(err)
				return
			}
			defer c.Close()
			key := keys[p%len(keys)]
			h := hist.For(key)
			id := h.Begin(checker.OpRead)
			v, err := c.Counter(key).Value(ctx)
			if err != nil {
				h.Discard(id)
				if errors.Is(err, client.ErrBusy) {
					probeBusy.Add(1)
					return
				}
				if errors.Is(err, client.ErrUncertain) {
					t.Errorf("refused probe read claims an uncertain fate: %v", err)
				}
				t.Errorf("probe read failed outside the busy class: %v", err)
				return
			}
			h.End(id, v)
		}(p)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}

	// Admission control must actually have engaged on both tiers.
	var shedReqs, shedConns uint64
	for _, srv := range servers {
		shedReqs += srv.ShedRequests()
		shedConns += srv.ShedConns()
	}
	if shedReqs == 0 {
		t.Error("no request was ever shed server-wide: the overload never overloaded")
	}
	if shedConns == 0 && probeBusy.Load() == 0 {
		t.Error("no connection was ever refused: the conn cap never engaged")
	}
	t.Logf("shed: %d requests, %d conns; %d probes exhausted as ErrBusy; slowest op %v",
		shedReqs, shedConns, probeBusy.Load(), time.Duration(slowest.Load()))

	// Degraded means bounded: under ~6× admission overload no operation —
	// retries, backoff, and sheds included — may take anywhere near the
	// request timeout. (Healthy ops run in single-digit milliseconds.)
	if worst := time.Duration(slowest.Load()); worst > 15*time.Second {
		t.Errorf("slowest operation took %v: overload degraded to unbounded latency", worst)
	}

	// Convergence and linearizability: a fresh, unconstrained client must
	// read exactly the recorded increments on every key via every server,
	// and the whole multi-client history must check out per key.
	final, err := client.New(addrs,
		client.WithRetryPolicy(client.RetryPolicy{MaxAttempts: 30, Backoff: 2 * time.Millisecond}))
	if err != nil {
		t.Fatal(err)
	}
	defer final.Close()
	for keyIdx, key := range keys {
		h := hist.For(key)
		id := h.Begin(checker.OpRead)
		v, err := final.Counter(key).Value(ctx)
		if err != nil {
			h.Discard(id)
			t.Fatalf("final read of %s: %v", key, err)
		}
		h.End(id, v)
		if want := uint64(incs[keyIdx].Load()); v != want {
			t.Errorf("final value of %s = %d, want %d", key, v, want)
		}
	}
	if err := checker.CheckKeyedLinearizable(hist); err != nil {
		t.Fatalf("overload history is not linearizable: %v", err)
	}
}
