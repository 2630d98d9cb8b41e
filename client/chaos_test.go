package client_test

// Replication-aware chaos test: a 5-node cluster whose replica mesh is
// split, healed, re-split along a different line, and healed again while
// concurrent clients work several keys through the serving layer. Every
// completed operation lands in a keyed history checked with the per-key
// linearizability checker — the paper's guarantee must survive minority
// isolation, not just clean runs — and the minority side must answer
// reads with the protocol's "unavailable" status (provably safe to retry
// anywhere) and updates with "uncertain" (fate unknown until the
// partition heals). The checker itself is self-tested at the end by
// injecting a deliberately stale read and requiring a violation report.

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"crdtsmr/client"
	"crdtsmr/internal/checker"
	"crdtsmr/internal/transport"
)

// workload runs one writer and one reader per padded key against the
// given server addresses, recording every completed operation. It returns the
// number of increments recorded per key. Phase clients are closed when
// the phase ends, so stale pools never accumulate across partitions.
func workload(t *testing.T, hist *checker.KeyedHistory, addrs, keys []string, opsEach int) map[string]int {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	var wg sync.WaitGroup
	var clients []*client.Client
	defer func() {
		for _, c := range clients {
			_ = c.Close()
		}
	}()
	for _, key := range keys {
		key := key
		newPhaseClient := func() *client.Client {
			c, err := client.New(addrs,
				client.WithRetryPolicy(client.RetryPolicy{MaxAttempts: 4 * len(addrs), Backoff: 2 * time.Millisecond}))
			if err != nil {
				t.Fatal(err)
			}
			clients = append(clients, c)
			return c
		}
		writer, reader := newPhaseClient(), newPhaseClient()
		h := hist.For(key)
		wg.Add(2)
		go func() {
			defer wg.Done()
			ctr := writer.Counter(key)
			for i := 0; i < opsEach; i++ {
				id := h.Begin(checker.OpInc)
				if err := ctr.Inc(ctx, 1); err != nil {
					// The increment's fate is unknown; the history stays
					// sound because the op is left open, but the test has
					// already failed — a quorum was reachable.
					t.Errorf("inc %s: %v", key, err)
					return
				}
				h.End(id, 0)
			}
		}()
		go func() {
			defer wg.Done()
			ctr := reader.Counter(key)
			for i := 0; i < opsEach; i++ {
				id := h.Begin(checker.OpRead)
				v, err := padded(ctx, ctr)
				if err != nil {
					h.Discard(id) // reads have no effects; discarding is sound
					t.Errorf("read %s: %v", key, err)
					return
				}
				h.End(id, v)
			}
		}()
	}
	wg.Wait()
	incs := make(map[string]int, len(keys))
	for _, key := range keys {
		incs[key] = opsEach
	}
	return incs
}

// TestChaosPartitionHealLinearizable is the partition sweep: healthy →
// partition {n1,n2,n3}|{n4,n5} → heal → partition {n3,n4,n5}|{n1,n2} →
// heal, with the workload pinned to whichever side holds a quorum and the
// isolated minority probed for its error surface. Its keys are padded
// above the replica wire's size switch: the digest caches and fallback
// paths must survive partitions, not just clean runs (partitioned peers
// miss MERGEs, so their baselines go stale and the MERGE-NACK →
// full-resend path is exactly what a heal exercises).
func TestChaosPartitionHealLinearizable(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second chaos test")
	}
	const (
		replicas       = 5
		opsEach        = 8
		requestTimeout = 500 * time.Millisecond
	)
	cc := startServedClusterWith(t, replicas, 7, requestTimeout, padKeys)
	n := cc.ids
	keys := []string{"obj/0", "obj/1", "obj/2"}
	hist := checker.NewKeyedHistory()
	totals := make(map[string]int)
	record := func(m map[string]int) {
		for k, v := range m {
			totals[k] += v
		}
	}

	// Phase 0: healthy cluster, clients spread over every server.
	record(workload(t, hist, cc.addrsOf(n...), keys, opsEach))

	// Phase 1: split {n1,n2,n3} | {n4,n5}; only the majority side can
	// serve, so the recorded workload goes through it.
	cc.mesh.Partition([]transport.NodeID{n[0], n[1], n[2]}, []transport.NodeID{n[3], n[4]})
	record(workload(t, hist, cc.addrsOf(n[0], n[1], n[2]), keys, opsEach))
	probeMinority(t, cc.addrs[n[3]], keys[0], "probe/p1")

	// Heal and work through every server again: the rejoined minority
	// must catch up and serve linearizable values.
	cc.mesh.Heal()
	record(workload(t, hist, cc.addrsOf(n...), keys, opsEach))

	// Phase 2: move the partition line — the old minority is now in the
	// majority, and n1 (which served phase 1) is isolated.
	cc.mesh.Partition([]transport.NodeID{n[2], n[3], n[4]}, []transport.NodeID{n[0], n[1]})
	record(workload(t, hist, cc.addrsOf(n[2], n[3], n[4]), keys, opsEach))
	probeMinority(t, cc.addrs[n[0]], keys[1], "probe/p2")

	// Final heal: every replica must converge; read each key once
	// through every server and record those reads too.
	cc.mesh.Heal()
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

	// The recorded multi-client history must be per-key linearizable.
	wantOps := len(keys)*(5*2*opsEach) + replicas*len(keys)
	if got := hist.Ops(); got != wantOps {
		t.Fatalf("recorded %d completed ops, want %d", got, wantOps)
	}
	if err := checker.CheckKeyedLinearizable(hist); err != nil {
		t.Fatalf("history across partition/heal cycles is not linearizable: %v", err)
	}

	// Checker self-test: inject a deliberately stale read (value 0 after
	// all increments completed) and require the checker to flag it — a
	// checker that accepts anything would make the pass above worthless.
	h := hist.For(keys[0])
	stale := h.Begin(checker.OpRead)
	h.End(stale, 0)
	if err := checker.CheckKeyedLinearizable(hist); err == nil {
		t.Fatal("checker accepted an injected stale read")
	}
}

// leaseHits sums the lease fast-path counter across the given nodes.
func leaseHits(cc *servedCluster, ids ...transport.NodeID) uint64 {
	var sum uint64
	for _, id := range ids {
		sum += cc.cl.Node(id).Counters().LeaseHits
	}
	return sum
}

// TestChaosLeaseHolderPartition partitions the round-lease holder out of
// a 5-node cluster in the middle of a hot-key, read-heavy stream. The
// stream fails over to the surviving majority; every completed operation
// must stay per-key linearizable (a stale leased read served from the
// isolated holder would break it), and once the stream quiets down a
// survivor must be able to install its own lease — the invalidation on
// round steal (docs/PROTOCOL.md §5) must not wedge the fast path off
// forever.
func TestChaosLeaseHolderPartition(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second chaos test")
	}
	const (
		replicas       = 5
		requestTimeout = 500 * time.Millisecond
		streamOps      = 120 // read-heavy: one increment per 8 operations
	)
	cc := startServedClusterWith(t, replicas, 13, requestTimeout, padKeys)
	n := cc.ids
	const key = "obj/hot"
	hist := checker.NewKeyedHistory()
	h := hist.For(key)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	// Phase 0: a client pinned to n1 works the hot key until n1 holds the
	// round lease and serves reads through it. The lease installs on the
	// first read whose quorum agrees on the round, so a handful of
	// read-after-write pairs suffices; the deadline is pure paranoia.
	pinned, err := client.New(cc.addrsOf(n[0]),
		client.WithRetryPolicy(client.RetryPolicy{MaxAttempts: 4, Backoff: 2 * time.Millisecond}))
	if err != nil {
		t.Fatal(err)
	}
	defer pinned.Close()
	ctr := pinned.Counter(key)
	acquired := time.Now().Add(15 * time.Second)
	for leaseHits(cc, n[0]) == 0 {
		if time.Now().After(acquired) {
			t.Fatal("n1 never acquired the lease")
		}
		id := h.Begin(checker.OpInc)
		if err := ctr.Inc(ctx, 1); err != nil {
			t.Fatalf("phase-0 inc: %v", err)
		}
		h.End(id, 0)
		id = h.Begin(checker.OpRead)
		v, err := padded(ctx, ctr)
		if err != nil {
			h.Discard(id)
			t.Fatalf("phase-0 read: %v", err)
		}
		h.End(id, v)
	}

	// The mid-stream workload runs through a failover client that knows
	// every server, lease holder first — so operations in flight when the
	// partition bites retry onto the survivors instead of failing.
	stream, err := client.New(cc.addrsOf(n...),
		client.WithRetryPolicy(client.RetryPolicy{MaxAttempts: 4 * replicas, Backoff: 2 * time.Millisecond}))
	if err != nil {
		t.Fatal(err)
	}
	defer stream.Close()
	streamDone := make(chan struct{})
	go func() {
		defer close(streamDone)
		ctr := stream.Counter(key)
		for i := 0; i < streamOps; i++ {
			if i%8 == 7 {
				id := h.Begin(checker.OpInc)
				if err := ctr.Inc(ctx, 1); err != nil {
					// The increment raced the partition and its fate is
					// unknown; leaving the op open keeps the history sound.
					continue
				}
				h.End(id, 0)
				continue
			}
			id := h.Begin(checker.OpRead)
			v, err := padded(ctx, ctr)
			if err != nil {
				h.Discard(id) // reads have no effects; discarding is sound
				continue
			}
			h.End(id, v)
		}
	}()

	// Partition the lease holder mid-stream: {n2..n5} keep the quorum,
	// n1 — lease and all — is cut off.
	time.Sleep(150 * time.Millisecond)
	cc.mesh.Partition([]transport.NodeID{n[1], n[2], n[3], n[4]}, []transport.NodeID{n[0]})
	<-streamDone

	// A survivor must re-acquire the lease: reads pinned to n2 mint a
	// fresh round (invalidating the holder's lease everywhere reachable)
	// and, once the stream's rounds settle, install n2's own.
	survivor, err := client.New(cc.addrsOf(n[1]),
		client.WithRetryPolicy(client.RetryPolicy{MaxAttempts: 4, Backoff: 2 * time.Millisecond}))
	if err != nil {
		t.Fatal(err)
	}
	defer survivor.Close()
	ctr = survivor.Counter(key)
	base := leaseHits(cc, n[1], n[2], n[3], n[4])
	reacquired := time.Now().Add(15 * time.Second)
	for leaseHits(cc, n[1], n[2], n[3], n[4]) == base {
		if time.Now().After(reacquired) {
			t.Fatal("no survivor re-acquired the lease after the holder was partitioned away")
		}
		id := h.Begin(checker.OpRead)
		v, err := padded(ctx, ctr)
		if err != nil {
			h.Discard(id)
			t.Fatalf("survivor read: %v", err)
		}
		h.End(id, v)
	}

	// Heal and read the key once through every server — the rejoined
	// holder must serve the merged value, not a stale leased one.
	cc.mesh.Heal()
	for _, id := range n {
		c, err := client.New([]string{cc.addrs[id]},
			client.WithRetryPolicy(client.RetryPolicy{MaxAttempts: 8, Backoff: 5 * time.Millisecond}))
		if err != nil {
			t.Fatal(err)
		}
		opID := h.Begin(checker.OpRead)
		v, err := padded(ctx, c.Counter(key))
		if err != nil {
			h.Discard(opID)
			t.Fatalf("final read via %s: %v", id, err)
		}
		h.End(opID, v)
		_ = c.Close()
	}

	if err := checker.CheckKeyedLinearizable(hist); err != nil {
		t.Fatalf("history across the lease-holder partition is not linearizable: %v", err)
	}
}

// probeMinority asserts the error surface of a replica cut off from its
// quorum: reads (no effects, provably not served) come back matching
// ErrUnavailable so clients may blindly retry them anywhere, while
// updates — whose MERGE may have left the building before the partition
// bit — come back matching ErrUncertain, never ErrUnavailable.
func probeMinority(t *testing.T, addr, readKey, updateKey string) {
	t.Helper()
	c, err := client.New([]string{addr},
		client.WithRetryPolicy(client.RetryPolicy{MaxAttempts: 1}))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	_, err = c.Counter(readKey).Value(ctx)
	if !errors.Is(err, client.ErrUnavailable) {
		t.Errorf("minority read: %v, want ErrUnavailable", err)
	}
	var se *client.StatusError
	if !errors.As(err, &se) || se.Status != client.StatusUnavailable {
		t.Errorf("minority read error %v carries no StatusError with StatusUnavailable", err)
	}

	// The update probe uses a key no recorded workload touches: its
	// increment may commit after the heal, which an "uncertain" answer
	// precisely permits.
	err = c.Counter(updateKey).Inc(ctx, 1)
	if !errors.Is(err, client.ErrUncertain) {
		t.Errorf("minority update: %v, want ErrUncertain", err)
	}
	if errors.Is(err, client.ErrUnavailable) {
		t.Error("minority update claimed ErrUnavailable (provably-not-applied) for an in-flight command")
	}
}
