package cluster

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"crdtsmr/internal/crdt"
	"crdtsmr/internal/persist"
	"crdtsmr/internal/transport"
)

// TestAckImpliesDurableGroupCommit is the direct persist-before-ack
// probe for the asynchronous pipeline: after every acknowledged update,
// the key's snapshot on disk — read back cold, through the real decoder
// — must already cover that update. The emulated write delay keeps the
// persister slow enough that a broken barrier (acking off the in-memory
// state) would be caught immediately.
func TestAckImpliesDurableGroupCommit(t *testing.T) {
	dataDir := t.TempDir()
	mesh := transport.NewMesh()
	defer mesh.Close()
	cfg := testConfig(1)
	cfg.Members = []transport.NodeID{"n1"}
	cfg.Shards = 2
	cfg.DataDir = dataDir
	cfg.PersistWriteDelay = 2 * time.Millisecond
	c, err := New(mesh, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := ctxWith(t, 20*time.Second)
	n1 := c.Node("n1")

	st, err := persist.Open(n1.store.Dir(), persist.Options{})
	if err != nil {
		t.Fatal(err)
	}
	const key = "durable"
	for i := uint64(1); i <= 5; i++ {
		if _, err := n1.UpdateKey(ctx, key, incBy("n1", 1)); err != nil {
			t.Fatalf("update %d: %v", i, err)
		}
		// The ack has been observed; nothing else writes this key, so the
		// directory is quiescent for it and a cold read is exact.
		snaps, _, err := st.LoadAll(persist.RecoverStrict)
		if err != nil {
			t.Fatalf("after ack %d: %v", i, err)
		}
		var got uint64
		found := false
		for _, ks := range snaps {
			if ks.Key == key {
				got = ks.Snap.State.(*crdt.GCounter).Value()
				found = true
			}
		}
		if !found {
			t.Fatalf("ack %d observed but no snapshot for %q on disk", i, key)
		}
		if got < i {
			t.Fatalf("ack %d observed but disk holds %d (ack outran the disk)", i, got)
		}
	}
}

// TestGroupCommitTornBatchUncertainty is the crash-injection test for
// group commit: a hook tears whole batches before their writes, exactly
// where a process crash would. Every key in a torn
// batch must surface as an uncertain (timed-out) op with its completion
// withheld; keys persisted before the tear must recover their
// acknowledged values cleanly after a full restart; and the torn keys
// must come back empty — the disk never promised them anything.
func TestGroupCommitTornBatchUncertainty(t *testing.T) {
	dataDir := t.TempDir()
	var armed atomic.Bool
	var tornBatches [][]string
	var tornMu sync.Mutex
	var firstTear sync.Once
	stalled, release := make(chan struct{}), make(chan struct{})
	hook := func(keys []string) error {
		if !armed.Load() {
			return nil
		}
		// Stall the first torn batch until the concurrently submitted keys
		// have piled up behind it, so they form the next batch — the
		// multi-key torn batch under test.
		firstTear.Do(func() { close(stalled); <-release })
		tornMu.Lock()
		tornBatches = append(tornBatches, append([]string(nil), keys...))
		tornMu.Unlock()
		return errors.New("injected crash before the batch's writes")
	}

	mesh := transport.NewMesh()
	defer mesh.Close()
	cfg := testConfig(1)
	cfg.Members = []transport.NodeID{"n1"}
	cfg.Shards = 1 // one shard, one persister: all torn keys share a pipeline
	cfg.DataDir = dataDir
	cfg.PersistWriteDelay = 5 * time.Millisecond
	cfg.persistHook = hook
	c, err := New(mesh, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	unstall := sync.OnceFunc(func() { close(release) })
	defer unstall()
	ctx := ctxWith(t, 30*time.Second)
	n1 := c.Node("n1")

	// Phase 1, hook disarmed: commit a baseline keyspace durably.
	want := map[string]uint64{}
	for i := 0; i < 5; i++ {
		key := fmt.Sprintf("good/%d", i)
		if _, err := n1.UpdateKey(ctx, key, incBy("n1", uint64(i+1))); err != nil {
			t.Fatalf("baseline %s: %v", key, err)
		}
		want[key] = uint64(i + 1)
	}

	// Phase 2, hook armed: every batch tears. Submit updates for fresh
	// keys concurrently so they group-commit together; each must time
	// out — the ack withheld because its snapshot never reached disk.
	armed.Store(true)
	tornKeys := []string{"torn/a", "torn/b", "torn/c", "torn/d"}
	var wg sync.WaitGroup
	for i, key := range tornKeys {
		wg.Add(1)
		go func(key string) {
			defer wg.Done()
			opCtx, cancel := context.WithTimeout(ctx, 700*time.Millisecond)
			defer cancel()
			_, err := n1.UpdateKey(opCtx, key, incBy("n1", 1))
			if !errors.Is(err, context.DeadlineExceeded) {
				t.Errorf("torn-batch update %s: err = %v, want deadline exceeded (uncertain)", key, err)
			}
		}(key)
		if i == 0 {
			select {
			case <-stalled: // the first key's batch is on the stalled disk
			case <-ctx.Done():
				t.Fatal("the first torn batch never reached the disk")
			}
		}
	}
	sh := n1.shardOf(tornKeys[0])
	waitFor(t, "the other torn keys to queue behind the stalled batch", func() bool {
		behind := 0
		sh.call(func() {
			for _, key := range tornKeys[1:] {
				behind += min(sh.queued[key], 1)
			}
		})
		return behind == len(tornKeys)-1
	})
	unstall()
	wg.Wait()
	if t.Failed() {
		return
	}
	if got := n1.PersistErrors(); got == 0 {
		t.Fatal("torn batches not counted as persist errors")
	}
	tornMu.Lock()
	multi := false
	for _, batch := range tornBatches {
		if len(batch) > 1 {
			multi = true
		}
	}
	tornMu.Unlock()
	if !multi {
		t.Fatalf("no multi-key batch ever formed (batches: %v); the group-commit path was not exercised", tornBatches)
	}

	// Phase 3, hook disarmed: the node must self-heal — the next save for
	// a torn key succeeds and its completions flow again.
	armed.Store(false)
	if _, err := n1.UpdateKey(ctx, "good/0", incBy("n1", 1)); err != nil {
		t.Fatalf("update after disarming hook: %v", err)
	}
	want["good/0"]++

	// Full restart: baseline keys recover their acknowledged values from
	// disk; torn keys never reached the disk, so they restart at zero —
	// a lawful resolution of an op whose ack was withheld.
	c.Crash("n1")
	if err := c.Restart("n1"); err != nil {
		t.Fatalf("restart: %v", err)
	}
	for key, v := range want {
		s, _, err := n1.QueryKey(ctx, key)
		if err != nil {
			t.Fatalf("query %s after restart: %v", key, err)
		}
		if got := s.(*crdt.GCounter).Value(); got != v {
			t.Fatalf("key %s = %d after restart, want %d", key, got, v)
		}
	}
	for _, key := range tornKeys {
		s, _, err := n1.QueryKey(ctx, key)
		if err != nil {
			t.Fatalf("query %s after restart: %v", key, err)
		}
		if got := s.(*crdt.GCounter).Value(); got != 0 {
			t.Fatalf("torn key %s = %d after restart, want 0 (its batch was never written)", key, got)
		}
	}
}

// TestReleaseWithoutWriteSkipsStalledDisk: a request with nothing to
// write, for a key with nothing in the persister pipeline, is released on
// the loop at once instead of queueing behind another key's batch. n1's
// update of "fast" is durable at n1 but its MERGEDs are dropped; then n1's
// disk stalls on "slow". The retransmitted MERGE and fast's completion
// carry no record, so fast must complete while slow is still stalled.
func TestReleaseWithoutWriteSkipsStalledDisk(t *testing.T) {
	var stallNext atomic.Bool
	stalled, release := make(chan struct{}), make(chan struct{})
	hook := func(keys []string) error {
		if slices.Contains(keys, "slow") && stallNext.CompareAndSwap(true, false) {
			close(stalled)
			<-release
		}
		return nil
	}
	mesh := transport.NewMesh()
	defer mesh.Close()
	cfg := testConfig(3)
	cfg.Shards = 1
	cfg.DataDir = t.TempDir()
	cfg.persistHook = hook
	c, err := New(mesh, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	unstall := sync.OnceFunc(func() { close(release) })
	defer unstall()
	ctx := ctxWith(t, 30*time.Second)
	n1 := c.Node("n1")

	mesh.Block("n2", "n1")
	mesh.Block("n3", "n1")
	fastDone := make(chan error, 1)
	go func() {
		_, err := n1.UpdateKey(ctx, "fast", incBy("n1", 1))
		fastDone <- err
	}()
	sh := n1.shardOf("fast")
	waitFor(t, "n1's write of fast to land", func() bool {
		saved := false
		sh.call(func() { saved = sh.savedVersion["fast"] > 0 })
		return saved
	})

	stallNext.Store(true)
	slowDone := make(chan error, 1)
	go func() {
		_, err := n1.UpdateKey(ctx, "slow", incBy("n1", 1))
		slowDone <- err
	}()
	select {
	case <-stalled:
	case <-ctx.Done():
		t.Fatal("slow's batch never reached the disk")
	}
	mesh.Unblock("n2", "n1")
	mesh.Unblock("n3", "n1")

	select {
	case err := <-fastDone:
		if err != nil {
			t.Fatalf("fast: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("fast did not complete while slow's batch was stalled: its release waited behind the disk")
	}
	select {
	case err := <-slowDone:
		t.Fatalf("slow completed (err %v) while its write was stalled", err)
	default:
	}
	unstall()
	if err := <-slowDone; err != nil {
		t.Fatalf("slow: %v", err)
	}
}

// TestLeasedReadSkipsStalledDisk: a leased read of a converged key changes
// no payload and no round on any replica, so it writes no record and none
// of its VOTEs, VOTEDs or client ack waits for a disk. Every persister is
// stalled on another key's batch; the read must complete anyway, and no
// batch the stalled disks see may hold the read key.
func TestLeasedReadSkipsStalledDisk(t *testing.T) {
	var (
		armed   atomic.Bool
		mu      sync.Mutex
		stalled []string
	)
	release := make(chan struct{})
	hook := func(keys []string) error {
		if armed.Load() {
			mu.Lock()
			stalled = append(stalled, keys...)
			mu.Unlock()
			<-release
		}
		return nil
	}
	mesh := transport.NewMesh()
	defer mesh.Close()
	cfg := testConfig(3)
	cfg.Shards = 1
	cfg.DataDir = t.TempDir()
	cfg.persistHook = hook
	c, err := New(mesh, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	unstall := sync.OnceFunc(func() { close(release) })
	defer unstall()
	ctx := ctxWith(t, 30*time.Second)
	n1 := c.Node("n1")

	const key = "read"
	if _, err := n1.UpdateKey(ctx, key, incBy("n1", 1)); err != nil {
		t.Fatal(err)
	}
	for leased := false; !leased; {
		_, st, err := n1.QueryKey(ctx, key)
		if err != nil {
			t.Fatal(err)
		}
		leased = st.Leased
	}
	waitFor(t, "every replica of the key to be durable and idle", func() bool {
		idle := true
		for _, id := range members(3) {
			sh := c.Node(id).shardOf(key)
			sh.call(func() {
				rep := sh.replicas[key]
				idle = idle && rep != nil && rep.InFlight() == 0 && sh.queued[key] == 0 &&
					rep.StateVersion() == sh.savedVersion[key]
			})
		}
		return idle
	})

	// Each node's own update of another key stalls its persister (its
	// MERGEs wait behind that record, so no node sees a peer's).
	armed.Store(true)
	otherDone := make(chan error, 3)
	for _, id := range members(3) {
		go func(n *Node) {
			_, err := n.UpdateKey(ctx, "other", incSelf(n))
			otherDone <- err
		}(c.Node(id))
	}
	waitFor(t, "every persister to stall on other's batch", func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(stalled) >= 3
	})

	readCtx, cancel := context.WithTimeout(ctx, 5*time.Second)
	defer cancel()
	s, st, err := n1.QueryKey(readCtx, key)
	if err != nil {
		t.Fatalf("leased read while every disk is stalled: %v", err)
	}
	if !st.Leased || s.(*crdt.GCounter).Value() != 1 {
		t.Fatalf("read %v with stats %+v, want value 1 by a leased hit", s, st)
	}
	mu.Lock()
	if slices.Contains(stalled, key) {
		t.Errorf("the read wrote a record: stalled batches hold %v", stalled)
	}
	mu.Unlock()
	unstall()
	for range 3 {
		if err := <-otherDone; err != nil {
			t.Fatalf("other: %v", err)
		}
	}
}

// TestGroupCommitBatchesUnderLatency: concurrent updates to many keys on
// one shard must complete in far less wall time than serial persistence
// would need — the whole point of group commit is that N keys' flushes
// share one emulated device barrier. This is the small in-package cousin
// of the bench guard in internal/bench.
func TestGroupCommitBatchesUnderLatency(t *testing.T) {
	mesh := transport.NewMesh()
	defer mesh.Close()
	cfg := testConfig(1)
	cfg.Members = []transport.NodeID{"n1"}
	cfg.Shards = 1
	cfg.DataDir = t.TempDir()
	cfg.PersistSync = persist.SyncAlways
	cfg.PersistWriteDelay = 10 * time.Millisecond
	c, err := New(mesh, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := ctxWith(t, 30*time.Second)
	n1 := c.Node("n1")

	const nKeys = 32
	start := time.Now()
	var wg sync.WaitGroup
	var failed atomic.Int64
	for k := 0; k < nKeys; k++ {
		key := fmt.Sprintf("k/%d", k)
		wg.Add(1)
		go func(key string) {
			defer wg.Done()
			if _, err := n1.UpdateKey(ctx, key, incBy("n1", 1)); err != nil {
				failed.Add(1)
			}
		}(key)
	}
	wg.Wait()
	if failed.Load() != 0 {
		t.Fatalf("%d updates failed", failed.Load())
	}
	elapsed := time.Since(start)
	serialFloor := time.Duration(nKeys) * cfg.PersistWriteDelay
	if elapsed >= serialFloor/2 {
		t.Fatalf("32 keys took %v; serial persistence needs ≥ %v — group commit is not batching", elapsed, serialFloor)
	}
}
