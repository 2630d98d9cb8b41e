package cluster

// The keyed-store behaviour of a replica group: every key an independent
// replication instance, addressed through Node.UpdateKey/QueryKey.

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"crdtsmr/internal/checker"
	"crdtsmr/internal/crdt"
	"crdtsmr/internal/transport"
)

func TestKeyedKeysAreIndependent(t *testing.T) {
	mesh := transport.NewMesh()
	defer mesh.Close()
	st, err := New(mesh, testConfig(3))
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	ctx := ctxWith(t, 10*time.Second)

	if _, err := st.Node("n1").UpdateKey(ctx, "a", incBy("n1", 1)); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Node("n2").UpdateKey(ctx, "b", incBy("n2", 1)); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Node("n2").UpdateKey(ctx, "b", incBy("n2", 1)); err != nil {
		t.Fatal(err)
	}

	sa, _, err := st.Node("n3").QueryKey(ctx, "a")
	if err != nil {
		t.Fatal(err)
	}
	if got := sa.(*crdt.GCounter).Value(); got != 1 {
		t.Fatalf("key a = %d, want 1", got)
	}
	sb, _, err := st.Node("n1").QueryKey(ctx, "b")
	if err != nil {
		t.Fatal(err)
	}
	if got := sb.(*crdt.GCounter).Value(); got != 2 {
		t.Fatalf("key b = %d, want 2", got)
	}
	// A never-touched key reads as the bottom element, linearizably.
	sc, _, err := st.Node("n2").QueryKey(ctx, "c")
	if err != nil {
		t.Fatal(err)
	}
	if got := sc.(*crdt.GCounter).Value(); got != 0 {
		t.Fatalf("key c = %d, want 0", got)
	}
}

func TestKeyedLazyInstantiation(t *testing.T) {
	mesh := transport.NewMesh()
	defer mesh.Close()
	st, err := New(mesh, testConfig(3))
	defer func() {
		if st != nil {
			st.Close()
		}
	}()
	if err != nil {
		t.Fatal(err)
	}
	ctx := ctxWith(t, 10*time.Second)

	// Only the default object exists at startup.
	if got := st.Node("n1").Objects(); got != 1 {
		t.Fatalf("objects at start = %d, want 1 (default)", got)
	}

	// An update at n1 instantiates the key on a quorum (the proposer and
	// the acceptors that merged), and retransmits eventually reach n3 too.
	if _, err := st.Node("n1").UpdateKey(ctx, "fresh", incBy("n1", 1)); err != nil {
		t.Fatal(err)
	}
	keys := st.Node("n1").Keys()
	if len(keys) != 2 || keys[0] != DefaultKey || keys[1] != "fresh" {
		t.Fatalf("keys at n1 = %q", keys)
	}

	// A remote replica instantiates on first inbound message for the key:
	// querying at n3 must see the update, so n3 has the object by then.
	s, _, err := st.Node("n3").QueryKey(ctx, "fresh")
	if err != nil {
		t.Fatal(err)
	}
	if got := s.(*crdt.GCounter).Value(); got != 1 {
		t.Fatalf("value at n3 = %d, want 1", got)
	}
	if got := st.Node("n3").Objects(); got != 2 {
		t.Fatalf("objects at n3 = %d, want 2", got)
	}
	all := make(map[string]bool)
	for _, n := range st.Nodes() {
		for _, k := range n.Keys() {
			all[k] = true
		}
	}
	if len(all) != 2 {
		t.Fatalf("union keys = %v", all)
	}
}

func TestKeyedMixedTypesPerKey(t *testing.T) {
	mesh := transport.NewMesh()
	defer mesh.Close()
	cfg := testConfig(3)
	cfg.InitialForKey = func(key string) crdt.State {
		if key == "flags" {
			return crdt.NewORSet()
		}
		return crdt.NewGCounter()
	}
	st, err := New(mesh, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	ctx := ctxWith(t, 10*time.Second)

	if _, err := st.Node("n1").UpdateKey(ctx, "flags", func(s crdt.State) (crdt.State, error) {
		return s.(*crdt.ORSet).Add("beta", "n1", 1), nil
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Node("n2").UpdateKey(ctx, "hits", incBy("n2", 1)); err != nil {
		t.Fatal(err)
	}

	s, _, err := st.Node("n3").QueryKey(ctx, "flags")
	if err != nil {
		t.Fatal(err)
	}
	if got := s.(*crdt.ORSet).Elements(); len(got) != 1 || got[0] != "beta" {
		t.Fatalf("flags = %v", got)
	}
	h, _, err := st.Node("n3").QueryKey(ctx, "hits")
	if err != nil {
		t.Fatal(err)
	}
	if got := h.(*crdt.GCounter).Value(); got != 1 {
		t.Fatalf("hits = %d", got)
	}
}

// TestStoreManyKeysLinearizable is the scaling acceptance test: a 3-node
// cluster serves 64 independent keys concurrently, every key driven by
// clients on different replicas, and the recorded multi-object history is
// verified per-key linearizable by the checker.
func TestKeyedManyKeysLinearizable(t *testing.T) {
	mesh := transport.NewMesh()
	defer mesh.Close()
	st, err := New(mesh, testConfig(3))
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	ctx := ctxWith(t, 60*time.Second)

	const nKeys = 64
	const opsPerClient = 12
	ids := members(3)
	kh := checker.NewKeyedHistory()
	var wg sync.WaitGroup
	var failures atomic.Int64

	for k := 0; k < nKeys; k++ {
		key := fmt.Sprintf("obj/%02d", k)
		// Two clients per key, pinned to different replicas so every key's
		// traffic crosses the network.
		for c := 0; c < 2; c++ {
			at := ids[(k+c)%len(ids)]
			wg.Add(1)
			go func(key string, at transport.NodeID, slot string) {
				defer wg.Done()
				h := kh.For(key)
				for i := 0; i < opsPerClient; i++ {
					id := h.Begin(checker.OpInc)
					if _, err := st.Node(at).UpdateKey(ctx, key, incBy(slot, 1)); err != nil {
						h.Discard(id)
						failures.Add(1)
						return
					}
					h.End(id, 0)

					if i%3 == 0 {
						id = h.Begin(checker.OpRead)
						s, _, err := st.Node(at).QueryKey(ctx, key)
						if err != nil {
							h.Discard(id)
							failures.Add(1)
							return
						}
						h.End(id, s.(*crdt.GCounter).Value())
					}
				}
			}(key, at, string(at)+"/"+key+fmt.Sprint(c))
		}
	}
	wg.Wait()
	if failures.Load() != 0 {
		t.Fatalf("%d clients failed", failures.Load())
	}

	if err := checker.CheckKeyedLinearizable(kh); err != nil {
		t.Fatalf("multi-object history not per-key linearizable: %v", err)
	}
	if got := len(kh.Keys()); got != nKeys {
		t.Fatalf("recorded %d keys, want %d", got, nKeys)
	}

	// Every key's final value must equal its increments (2 clients × ops).
	for k := 0; k < nKeys; k++ {
		key := fmt.Sprintf("obj/%02d", k)
		s, _, err := st.Node(ids[k%len(ids)]).QueryKey(ctx, key)
		if err != nil {
			t.Fatal(err)
		}
		if got := s.(*crdt.GCounter).Value(); got != 2*opsPerClient {
			t.Fatalf("key %s = %d, want %d", key, got, 2*opsPerClient)
		}
	}

	// All 64 keys multiplexed over each node's one connection and loop.
	for _, id := range ids {
		if got := st.Node(id).Objects(); got < nKeys {
			t.Fatalf("node %s instantiated %d objects, want ≥ %d", id, got, nKeys)
		}
	}
}

// TestStorePartitionFailover is the Jepsen-style fault test: it drives
// Mesh.SetDown against the store mid-workload — crash a minority, keep
// operating, recover, crash a different node — and then checks every key's
// history for linearizability and the final values for lost updates.
func TestKeyedPartitionFailover(t *testing.T) {
	mesh := transport.NewMesh()
	defer mesh.Close()
	cfg := testConfig(3)
	cfg.RetransmitInterval = 10 * time.Millisecond
	st, err := New(mesh, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	ctx := ctxWith(t, 60*time.Second)

	const nKeys = 8
	ids := members(3)
	kh := checker.NewKeyedHistory()
	var expected [nKeys]atomic.Uint64

	// Phase driver: n3 down → heal → n1 down → heal. SetDown drops the
	// node's traffic at the mesh while its state survives (crash-recovery
	// model); clients pinned to healthy replicas keep a quorum.
	phase := func(down transport.NodeID, healthy []transport.NodeID) {
		if down != "" {
			mesh.SetDown(down, true)
			defer mesh.SetDown(down, false)
		}
		var wg sync.WaitGroup
		for k := 0; k < nKeys; k++ {
			key := fmt.Sprintf("key/%d", k)
			at := healthy[k%len(healthy)]
			wg.Add(1)
			go func(k int, key string, at transport.NodeID) {
				defer wg.Done()
				h := kh.For(key)
				for i := 0; i < 6; i++ {
					id := h.Begin(checker.OpInc)
					if _, err := st.Node(at).UpdateKey(ctx, key, incBy(string(at)+key, 1)); err != nil {
						// An aborted increment may or may not have taken
						// effect; treating it as absent could under-count,
						// so fail the test instead of guessing.
						h.Discard(id)
						t.Errorf("update %s at %s: %v", key, at, err)
						return
					}
					h.End(id, 0)
					expected[k].Add(1)

					id = h.Begin(checker.OpRead)
					s, _, err := st.Node(at).QueryKey(ctx, key)
					if err != nil {
						h.Discard(id)
						t.Errorf("query %s at %s: %v", key, at, err)
						return
					}
					h.End(id, s.(*crdt.GCounter).Value())
				}
			}(k, key, at)
		}
		wg.Wait()
	}

	phase("", ids)                              // healthy cluster
	phase("n3", []transport.NodeID{"n1", "n2"}) // minority down
	phase("", ids)                              // healed
	phase("n1", []transport.NodeID{"n2", "n3"}) // different minority
	phase("", ids)                              // healed again

	if t.Failed() {
		return
	}
	if err := checker.CheckKeyedLinearizable(kh); err != nil {
		t.Fatalf("history across failovers not per-key linearizable: %v", err)
	}
	// No lost updates: each key's final value equals its completed incs,
	// readable at the twice-partitioned replicas too.
	for k := 0; k < nKeys; k++ {
		key := fmt.Sprintf("key/%d", k)
		for _, at := range ids {
			s, _, err := st.Node(at).QueryKey(ctx, key)
			if err != nil {
				t.Fatal(err)
			}
			if got := s.(*crdt.GCounter).Value(); got != expected[k].Load() {
				t.Fatalf("key %s at %s = %d, want %d", key, at, got, expected[k].Load())
			}
		}
	}
}

func TestKeyedMajorityDownBlocksKey(t *testing.T) {
	mesh := transport.NewMesh()
	defer mesh.Close()
	st, err := New(mesh, testConfig(3))
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	mesh.SetDown("n2", true)
	mesh.SetDown("n3", true)
	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	if _, err := st.Node("n1").UpdateKey(ctx, "k", incBy("n1", 1)); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want deadline exceeded without a quorum", err)
	}
}

func TestKeyedBatchingPerKey(t *testing.T) {
	mesh := transport.NewMesh()
	defer mesh.Close()
	cfg := testConfig(3)
	cfg.BatchInterval = 2 * time.Millisecond
	st, err := New(mesh, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	ctx := ctxWith(t, 30*time.Second)

	const nKeys = 4
	const clientsPerKey = 4
	const ops = 8
	var wg sync.WaitGroup
	var failed atomic.Int64
	for k := 0; k < nKeys; k++ {
		key := fmt.Sprintf("batched/%d", k)
		for c := 0; c < clientsPerKey; c++ {
			wg.Add(1)
			go func(key, slot string) {
				defer wg.Done()
				for i := 0; i < ops; i++ {
					if _, err := st.Node("n1").UpdateKey(ctx, key, incBy(slot, 1)); err != nil {
						failed.Add(1)
						return
					}
				}
			}(key, fmt.Sprintf("%s/%d", key, c))
		}
	}
	wg.Wait()
	if failed.Load() != 0 {
		t.Fatalf("%d clients failed", failed.Load())
	}
	for k := 0; k < nKeys; k++ {
		key := fmt.Sprintf("batched/%d", k)
		s, _, err := st.Node("n2").QueryKey(ctx, key)
		if err != nil {
			t.Fatal(err)
		}
		if got := s.(*crdt.GCounter).Value(); got != clientsPerKey*ops {
			t.Fatalf("key %s = %d, want %d", key, got, clientsPerKey*ops)
		}
	}
	// Batching amortized protocol runs across each key's commands.
	counters := st.Node("n1").Counters()
	if counters.Updates >= nKeys*clientsPerKey*ops {
		t.Fatalf("ran %d update protocol rounds for %d commands; per-key batching ineffective",
			counters.Updates, nKeys*clientsPerKey*ops)
	}
}

func TestKeyedRejectsUnknownReplica(t *testing.T) {
	mesh := transport.NewMesh()
	defer mesh.Close()
	st, err := New(mesh, testConfig(3))
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	// Commands name the replica they run at; an unknown ID has no node to
	// run them (the crdtsmr facade turns this into its error).
	if st.Node("ghost") != nil {
		t.Fatal("unknown replica accepted")
	}
}

func TestKeyedRejectedKey(t *testing.T) {
	mesh := transport.NewMesh()
	defer mesh.Close()
	cfg := testConfig(3)
	cfg.InitialForKey = func(key string) crdt.State {
		if key == "forbidden" {
			return nil
		}
		return crdt.NewGCounter()
	}
	st, err := New(mesh, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	ctx := ctxWith(t, 5*time.Second)
	if _, err := st.Node("n1").UpdateKey(ctx, "forbidden", incBy("x", 1)); err == nil {
		t.Fatal("key with nil initial state accepted")
	}
	if _, err := st.Node("n1").UpdateKey(ctx, "allowed", incBy("x", 1)); err != nil {
		t.Fatal(err)
	}
}

// TestClusterCloseLeavesNoGoroutines pins the boundedness claim behind
// Close: every shard loop, persister and timer callback a replica group
// started is gone once Close returns. The count is polled because mesh
// deliveries in flight at Close take a moment to run out.
func TestClusterCloseLeavesNoGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	mesh := transport.NewMesh()
	cfg := testConfig(3)
	cfg.DataDir = t.TempDir()
	cfg.BatchInterval = time.Millisecond
	cfg.Shards = 4
	st, err := New(mesh, cfg)
	if err != nil {
		mesh.Close()
		t.Fatal(err)
	}
	ctx := ctxWith(t, 10*time.Second)
	for k := 0; k < 8; k++ {
		at := cfg.Members[k%3]
		key := fmt.Sprintf("leak/%d", k)
		if _, err := st.Node(at).UpdateKey(ctx, key, incBy(string(at), 1)); err != nil {
			t.Error(err)
		}
		if _, _, err := st.Node(cfg.Members[(k+1)%3]).QueryKey(ctx, key); err != nil {
			t.Error(err)
		}
	}
	st.Close()
	mesh.Close()

	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines after Close, %d before start:\n%s",
				runtime.NumGoroutine(), before, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(5 * time.Millisecond)
	}
}
