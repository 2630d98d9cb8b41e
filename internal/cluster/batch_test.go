package cluster

import (
	"context"
	"sync"
	"testing"
	"time"

	"crdtsmr/internal/crdt"
	"crdtsmr/internal/transport"
)

// TestBatchQueriesShareOneProtocolRun checks the §3.6 batching claim that
// buffered commands do not travel over the network: all queries of a batch
// complete from a single learned state, so the number of protocol-level
// queries is far below the number of client reads.
func TestBatchQueriesShareOneProtocolRun(t *testing.T) {
	mesh := transport.NewMesh()
	defer mesh.Close()
	cfg := testConfig(3)
	cfg.BatchInterval = 5 * time.Millisecond
	c, err := New(mesh, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := ctxWith(t, 20*time.Second)
	n1 := c.Node("n1")

	const readers = 16
	var wg sync.WaitGroup
	for i := 0; i < readers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 5; j++ {
				if _, _, err := n1.Query(ctx); err != nil {
					t.Errorf("query: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	counters := n1.Counters()
	if counters.Queries == 0 {
		t.Fatal("no protocol queries ran")
	}
	if counters.Queries >= readers*5 {
		t.Fatalf("batching ran %d protocol queries for %d client reads", counters.Queries, readers*5)
	}
}

// TestBatchMixedCommandsLinearizable interleaves batched updates and
// queries and checks the query results never regress and finally include
// everything.
func TestBatchMixedCommandsLinearizable(t *testing.T) {
	mesh := transport.NewMesh()
	defer mesh.Close()
	cfg := testConfig(3)
	cfg.BatchInterval = 2 * time.Millisecond
	c, err := New(mesh, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := ctxWith(t, 30*time.Second)

	var mu sync.Mutex
	var lastSeen uint64
	var wg sync.WaitGroup
	const writers = 4
	const writes = 20
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			node := c.Nodes()[w%3]
			for i := 0; i < writes; i++ {
				if _, err := node.Update(ctx, incSelf(node)); err != nil {
					t.Errorf("update: %v", err)
					return
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		n2 := c.Node("n2")
		for i := 0; i < 15; i++ {
			s, _, err := n2.Query(ctx)
			if err != nil {
				t.Errorf("query: %v", err)
				return
			}
			v := s.(*crdt.GCounter).Value()
			mu.Lock()
			if v < lastSeen {
				t.Errorf("reads at one node regressed: %d after %d", v, lastSeen)
			}
			lastSeen = v
			mu.Unlock()
		}
	}()
	wg.Wait()

	s, _, err := c.Node("n3").Query(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if got := s.(*crdt.GCounter).Value(); got != writers*writes {
		t.Fatalf("final value = %d, want %d", got, writers*writes)
	}
}

// TestBatchFlushSurvivesIdlePeriods checks that the flush timer keeps
// rearming with empty batches and still serves commands afterwards.
func TestBatchFlushSurvivesIdlePeriods(t *testing.T) {
	fab := transport.LAN().Fabric(1)
	cfg := testConfig(3)
	cfg.BatchInterval = time.Millisecond
	c := newStepped(t, fab, cfg)
	ctx := context.Background()
	n1 := c.Node("n1")

	if _, err := n1.Update(ctx, incSelf(n1)); err != nil {
		t.Fatal(err)
	}
	fab.RunFor(20 * time.Millisecond) // many empty flush cycles
	if _, err := n1.Update(ctx, incSelf(n1)); err != nil {
		t.Fatal(err)
	}
	s, _, err := n1.Query(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if got := s.(*crdt.GCounter).Value(); got != 2 {
		t.Fatalf("value = %d, want 2", got)
	}
}

// TestCrashFailsBatchedCommands checks that buffered commands fail fast
// when the node crashes between enqueue and flush.
func TestCrashFailsBatchedCommands(t *testing.T) {
	mesh := transport.NewMesh()
	defer mesh.Close()
	cfg := testConfig(3)
	cfg.BatchInterval = time.Hour // flush never fires on its own
	c, err := New(mesh, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	n1 := c.Node("n1")

	errCh := make(chan error, 1)
	go func() {
		_, err := n1.Update(context.Background(), incSelf(n1))
		errCh <- err
	}()
	waitOnLoop(t, n1, DefaultKey, func(s *shard) bool { return len(s.keys[DefaultKey].updates) == 1 })
	n1.SetCrashed(true)
	select {
	case err := <-errCh:
		if err == nil {
			t.Fatal("batched command succeeded on crashed node")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("batched command hung through the crash")
	}
}
