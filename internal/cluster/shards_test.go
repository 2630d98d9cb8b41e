package cluster

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"crdtsmr/internal/checker"
	"crdtsmr/internal/crdt"
	"crdtsmr/internal/transport"
)

// TestShardForDeterministicAndSpread pins the routing contract: the
// key→shard map is a pure function of key and shard count (every
// command and inbound frame for a key must land on the same loop), and
// a realistic keyspace actually spreads across the shards — a hash
// collapsing to one shard would silently void the whole design.
func TestShardForDeterministicAndSpread(t *testing.T) {
	mesh := transport.NewMesh()
	defer mesh.Close()
	cfg := testConfig(3)
	cfg.Shards = 4
	c, err := New(mesh, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	n := c.Node("n1")
	if got := n.Shards(); got != 4 {
		t.Fatalf("Shards() = %d, want 4", got)
	}
	hit := make(map[int]int)
	for i := 0; i < 64; i++ {
		key := fmt.Sprintf("obj/%02d", i)
		s1 := n.shardFor(key)
		if s2 := n.shardFor(key); s2 != s1 {
			t.Fatalf("shardFor(%q) unstable: %d then %d", key, s1, s2)
		}
		if s1 < 0 || s1 >= 4 {
			t.Fatalf("shardFor(%q) = %d out of range", key, s1)
		}
		hit[s1]++
	}
	if len(hit) < 3 {
		t.Fatalf("64 keys landed on only %d of 4 shards: %v", len(hit), hit)
	}
}

// TestDefaultShardsEnvOverride: Config.Shards = 0 resolves through
// CRDTSMR_SHARDS (the CI matrix knob) before falling back to GOMAXPROCS.
func TestDefaultShardsEnvOverride(t *testing.T) {
	t.Setenv("CRDTSMR_SHARDS", "3")
	if got, err := defaultShards(); err != nil || got != 3 {
		t.Fatalf("defaultShards() = %d, %v with CRDTSMR_SHARDS=3", got, err)
	}
	t.Setenv("CRDTSMR_SHARDS", "")
	if got, err := defaultShards(); err != nil || got != runtime.GOMAXPROCS(0) {
		t.Fatalf("defaultShards() = %d, %v with empty env, want GOMAXPROCS", got, err)
	}
}

// TestNewNodeRejectsBadShardsEnv: a CRDTSMR_SHARDS value that is set but
// not a positive integer fails startup with an error naming it, instead
// of silently running the default shard count (a mistyped CI matrix row
// would otherwise test nothing).
func TestNewNodeRejectsBadShardsEnv(t *testing.T) {
	start := func(env string) (*Node, error) {
		t.Setenv("CRDTSMR_SHARDS", env)
		mesh := transport.NewMesh()
		t.Cleanup(mesh.Close)
		return NewNode("n1", testConfig(1), func(id transport.NodeID, h transport.Handler) transport.Conn {
			return mesh.Join(id, h)
		})
	}
	for _, bad := range []string{"four", "0", "-1"} {
		n, err := start(bad)
		if err == nil {
			n.Close()
			t.Fatalf("CRDTSMR_SHARDS=%q: node started with %d shards, want an error", bad, n.Shards())
		}
		if !strings.Contains(err.Error(), fmt.Sprintf("%q", bad)) {
			t.Fatalf("CRDTSMR_SHARDS=%q: error %q does not name the value", bad, err)
		}
	}
	for env, want := range map[string]int{"": runtime.GOMAXPROCS(0), "4": 4} {
		n, err := start(env)
		if err != nil {
			t.Fatalf("CRDTSMR_SHARDS=%q: %v", env, err)
		}
		if got := n.Shards(); got != want {
			t.Errorf("CRDTSMR_SHARDS=%q: %d shards, want %d", env, got, want)
		}
		n.Close()
	}
}

// TestShardedChaosPartitionRollingRestart is the keyed-linearizability
// chaos test for the sharded runtime: a durable 3-node cluster with 4
// shards per node and keys above the replica wire's size switch (digest
// and delta frames) serves a multi-key workload
// through a minority partition and a rolling restart of every node, and
// (a) the recorded history must be per-key linearizable, (b) after ALL
// nodes crash and restart — wiping every byte of volatile state,
// including anything sitting in a group-commit batch — every
// acknowledged increment must still be readable everywhere, which is
// persist-before-ack observed end to end.
func TestShardedChaosPartitionRollingRestart(t *testing.T) {
	mesh := transport.NewMesh(transport.WithSeed(23))
	defer mesh.Close()
	cfg := testConfig(3)
	cfg.Shards = 4
	cfg.RetransmitInterval = 10 * time.Millisecond
	padded := checker.PaddedCounter(padSlots)
	cfg.InitialForKey = func(string) crdt.State { return padded }
	cfg.DataDir = t.TempDir()
	c, err := New(mesh, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := ctxWith(t, 120*time.Second)

	const nKeys = 12
	const opsPerPhase = 4
	ids := members(3)
	kh := checker.NewKeyedHistory()
	var acked [nKeys]atomic.Uint64

	// Keys must exercise more than one shard or the test degenerates to
	// the single-loop case.
	shardsHit := make(map[int]bool)
	for k := 0; k < nKeys; k++ {
		shardsHit[c.Node("n1").shardFor(fmt.Sprintf("key/%d", k))] = true
	}
	if len(shardsHit) < 2 {
		t.Fatalf("all %d keys hash to one shard; pick different key names", nKeys)
	}

	phase := func(healthy []transport.NodeID) {
		var wg sync.WaitGroup
		for k := 0; k < nKeys; k++ {
			key := fmt.Sprintf("key/%d", k)
			at := healthy[k%len(healthy)]
			wg.Add(1)
			go func(k int, key string, at transport.NodeID) {
				defer wg.Done()
				h := kh.For(key)
				n := c.Node(at)
				for i := 0; i < opsPerPhase; i++ {
					id := h.Begin(checker.OpInc)
					if _, err := n.UpdateKey(ctx, key, incBy(string(at)+key, 1)); err != nil {
						h.Discard(id)
						t.Errorf("update %s at %s: %v", key, at, err)
						return
					}
					h.End(id, 0)
					acked[k].Add(1)

					id = h.Begin(checker.OpRead)
					s, _, err := n.QueryKey(ctx, key)
					if err != nil {
						h.Discard(id)
						t.Errorf("query %s at %s: %v", key, at, err)
						return
					}
					h.End(id, s.(*crdt.GCounter).Value()-padSlots)
				}
			}(k, key, at)
		}
		wg.Wait()
	}

	phase(ids) // healthy baseline
	mesh.SetDown("n3", true)
	phase([]transport.NodeID{"n1", "n2"}) // minority partitioned away
	mesh.SetDown("n3", false)
	phase(ids) // healed
	for _, down := range ids {
		// Rolling restart: crash one node mid-workload, keep the quorum
		// serving, bring it back from disk.
		c.Crash(down)
		var healthy []transport.NodeID
		for _, id := range ids {
			if id != down {
				healthy = append(healthy, id)
			}
		}
		phase(healthy)
		if err := c.Restart(down); err != nil {
			t.Fatalf("rolling restart of %s: %v", down, err)
		}
	}
	phase(ids) // healed again
	if t.Failed() {
		return
	}

	if err := checker.CheckKeyedLinearizable(kh); err != nil {
		t.Fatalf("chaos history not per-key linearizable: %v", err)
	}

	// Full-cluster restart: every acknowledged op must survive on disk
	// alone (group-commit batches included).
	for _, id := range ids {
		c.Crash(id)
	}
	for _, id := range ids {
		if err := c.Restart(id); err != nil {
			t.Fatalf("full restart of %s: %v", id, err)
		}
	}
	for k := 0; k < nKeys; k++ {
		key := fmt.Sprintf("key/%d", k)
		want := acked[k].Load()
		for _, id := range ids {
			s, _, err := c.Node(id).QueryKey(ctx, key)
			if err != nil {
				t.Fatalf("query %q at %s after full restart: %v", key, id, err)
			}
			if got := s.(*crdt.GCounter).Value() - padSlots; got < want {
				t.Fatalf("key %q at %s = %d after full restart, want ≥ %d acked (persist-before-ack violated)",
					key, id, got, want)
			}
		}
	}
}

// TestShardCountEquivalenceSingleKey: a sequential single-key workload
// must produce bit-identical observable behavior at 1 shard and at 4 —
// sharding partitions the keyspace across loops, it must never change
// what any one key's replication computes. The workload is sequential,
// so every read's value is fully determined by the acknowledged writes
// before it, independent of goroutine scheduling; mesh delivery shares
// one seed so the runs face the same network.
func TestShardCountEquivalenceSingleKey(t *testing.T) {
	run := func(shards int) []uint64 {
		mesh := transport.NewMesh(transport.WithSeed(77))
		defer mesh.Close()
		cfg := testConfig(3)
		cfg.Shards = shards
		cfg.DataDir = t.TempDir()
		c, err := New(mesh, cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		ctx := ctxWith(t, 60*time.Second)

		const key = "the-key"
		h := checker.NewHistory()
		var values []uint64
		for i := 0; i < 12; i++ {
			at := c.Node(members(3)[i%3])
			id := h.Begin(checker.OpInc)
			if _, err := at.UpdateKey(ctx, key, incBy(fmt.Sprintf("slot%d", i%3), 1)); err != nil {
				t.Fatalf("shards=%d op %d: %v", shards, i, err)
			}
			h.End(id, 0)
			rd := c.Node(members(3)[(i+1)%3])
			id = h.Begin(checker.OpRead)
			s, _, err := rd.QueryKey(ctx, key)
			if err != nil {
				t.Fatalf("shards=%d read %d: %v", shards, i, err)
			}
			v := s.(*crdt.GCounter).Value()
			h.End(id, v)
			values = append(values, v)
		}
		if err := checker.CheckCounterLinearizable(h.Ops()); err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		return values
	}

	one, four := run(1), run(4)
	for i := range one {
		if one[i] != four[i] {
			t.Fatalf("read %d diverged: shards=1 saw %d, shards=4 saw %d\n1: %v\n4: %v",
				i, one[i], four[i], one, four)
		}
	}
}

// TestShardFanoutCrashAndForget: SetCrashed and ForgetPeer must take
// effect on every shard — a command for any key, whichever shard owns
// it, observes the crash once SetCrashed returns.
func TestShardFanoutCrashAndForget(t *testing.T) {
	mesh := transport.NewMesh()
	defer mesh.Close()
	cfg := testConfig(3)
	cfg.Shards = 4
	c, err := New(mesh, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := ctxWith(t, 10*time.Second)
	n1 := c.Node("n1")

	// Warm a key on every shard.
	keys := make([]string, 0, 8)
	for i := 0; len(keys) < 8 && i < 256; i++ {
		keys = append(keys, fmt.Sprintf("warm/%d", i))
	}
	for _, key := range keys {
		if _, err := n1.UpdateKey(ctx, key, incBy("n1", 1)); err != nil {
			t.Fatal(err)
		}
	}

	n1.SetCrashed(true)
	for _, key := range keys {
		if _, err := n1.UpdateKey(ctx, key, incBy("n1", 1)); err != ErrUnavailable {
			t.Fatalf("update %q on crashed node: err = %v, want ErrUnavailable", key, err)
		}
	}
	n1.SetCrashed(false)
	n1.ForgetPeer("n2") // must not deadlock or panic across shards
	for _, key := range keys {
		if _, err := n1.UpdateKey(ctx, key, incBy("n1", 1)); err != nil {
			t.Fatalf("update %q after recover: %v", key, err)
		}
	}
}
