package cluster

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"crdtsmr/internal/checker"
	"crdtsmr/internal/core"
	"crdtsmr/internal/crdt"
	"crdtsmr/internal/transport"
	"crdtsmr/internal/wire"
)

func members(n int) []transport.NodeID {
	out := make([]transport.NodeID, n)
	for i := range out {
		out[i] = transport.NodeID(fmt.Sprintf("n%d", i+1))
	}
	return out
}

func testConfig(n int) Config {
	return Config{
		Members:            members(n),
		Initial:            crdt.NewGCounter(),
		Options:            core.DefaultOptions(),
		RetransmitInterval: 20 * time.Millisecond,
	}
}

// newStepped starts cfg's cluster on fab, its nodes stepped on the
// fabric's clock with one shard each unless cfg sets Shards, and closes it
// with the test. Its blocking calls run the fabric until they complete.
func newStepped(t *testing.T, fab *transport.Fabric, cfg Config) *Cluster {
	t.Helper()
	if cfg.Shards == 0 {
		cfg.Shards = 1
	}
	c, err := New(fab, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c
}

func incSelf(n *Node) crdt.Update {
	id := string(n.ID())
	return func(s crdt.State) (crdt.State, error) {
		return s.(*crdt.GCounter).Inc(id, 1), nil
	}
}

func ctxWith(t *testing.T, d time.Duration) context.Context {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), d)
	t.Cleanup(cancel)
	return ctx
}

func TestClusterUpdateVisibleToQueryAnywhere(t *testing.T) {
	mesh := transport.NewMesh()
	defer mesh.Close()
	c, err := New(mesh, testConfig(3))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	ctx := ctxWith(t, 5*time.Second)
	n1, n2 := c.Node("n1"), c.Node("n2")

	stats, err := n1.Update(ctx, incSelf(n1))
	if err != nil {
		t.Fatalf("update: %v", err)
	}
	if stats.RoundTrips != 1 {
		t.Fatalf("update RTTs = %d, want 1", stats.RoundTrips)
	}
	s, qstats, err := n2.Query(ctx)
	if err != nil {
		t.Fatalf("query: %v", err)
	}
	if got := s.(*crdt.GCounter).Value(); got != 1 {
		t.Fatalf("value = %d, want 1 (update visibility)", got)
	}
	if qstats.Attempts < 1 {
		t.Fatalf("stats = %+v", qstats)
	}
}

func TestClusterConcurrentClientsConverge(t *testing.T) {
	mesh := transport.NewMesh()
	defer mesh.Close()
	c, err := New(mesh, testConfig(3))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	ctx := ctxWith(t, 30*time.Second)
	const clientsPerNode = 4
	const opsPerClient = 25
	var wg sync.WaitGroup
	var failures atomic.Int64
	for _, n := range c.Nodes() {
		for i := 0; i < clientsPerNode; i++ {
			wg.Add(1)
			go func(n *Node) {
				defer wg.Done()
				for j := 0; j < opsPerClient; j++ {
					if _, err := n.Update(ctx, incSelf(n)); err != nil {
						failures.Add(1)
						return
					}
					if j%5 == 0 {
						if _, _, err := n.Query(ctx); err != nil {
							failures.Add(1)
							return
						}
					}
				}
			}(n)
		}
	}
	wg.Wait()
	if failures.Load() != 0 {
		t.Fatalf("%d clients failed", failures.Load())
	}

	want := uint64(3 * clientsPerNode * opsPerClient)
	s, _, err := c.Node("n3").Query(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if got := s.(*crdt.GCounter).Value(); got != want {
		t.Fatalf("final value = %d, want %d", got, want)
	}
}

func TestClusterBatchingCompletesAllCommands(t *testing.T) {
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
	const clients = 8
	const ops = 10
	var wg sync.WaitGroup
	var failed atomic.Int64
	n1 := c.Node("n1")
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < ops; j++ {
				if _, err := n1.Update(ctx, incSelf(n1)); err != nil {
					failed.Add(1)
					return
				}
			}
		}()
	}
	wg.Wait()
	if failed.Load() != 0 {
		t.Fatalf("%d clients failed", failed.Load())
	}
	s, _, err := c.Node("n2").Query(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if got := s.(*crdt.GCounter).Value(); got != clients*ops {
		t.Fatalf("value = %d, want %d", got, clients*ops)
	}
	// Batching should have needed far fewer protocol runs than commands.
	counters := n1.Counters()
	if counters.Updates >= clients*ops {
		t.Fatalf("updates ran %d protocol rounds for %d commands; batching ineffective", counters.Updates, clients*ops)
	}
}

func TestClusterMinorityCrashContinues(t *testing.T) {
	mesh := transport.NewMesh()
	defer mesh.Close()
	c, err := New(mesh, testConfig(3))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := ctxWith(t, 10*time.Second)

	c.Crash("n3")
	n1 := c.Node("n1")
	if _, err := n1.Update(ctx, incSelf(n1)); err != nil {
		t.Fatalf("update with minority crash: %v", err)
	}
	s, _, err := n1.Query(ctx)
	if err != nil {
		t.Fatalf("query with minority crash: %v", err)
	}
	if got := s.(*crdt.GCounter).Value(); got != 1 {
		t.Fatalf("value = %d", got)
	}

	// Commands on the crashed node fail fast.
	if _, err := c.Node("n3").Update(ctx, incSelf(c.Node("n3"))); !errors.Is(err, ErrUnavailable) {
		t.Fatalf("crashed node err = %v, want ErrUnavailable", err)
	}
}

func TestClusterMajorityCrashBlocks(t *testing.T) {
	mesh := transport.NewMesh()
	defer mesh.Close()
	c, err := New(mesh, testConfig(3))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	c.Crash("n2")
	c.Crash("n3")
	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	n1 := c.Node("n1")
	if _, err := n1.Update(ctx, incSelf(n1)); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want deadline exceeded without a quorum", err)
	}
}

func TestClusterCrashRecoveryKeepsState(t *testing.T) {
	for _, mode := range []string{"volatile", "durable"} {
		t.Run(mode, func(t *testing.T) {
			mesh := transport.NewMesh()
			defer mesh.Close()
			cfg := testConfig(3)
			if mode == "durable" {
				cfg.DataDir = t.TempDir()
			}
			c, err := New(mesh, cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			ctx := ctxWith(t, 10*time.Second)

			n1, n3 := c.Node("n1"), c.Node("n3")
			if _, err := n1.Update(ctx, incSelf(n1)); err != nil {
				t.Fatal(err)
			}
			c.Crash("n3")
			for i := 0; i < 3; i++ {
				if _, err := n1.Update(ctx, incSelf(n1)); err != nil {
					t.Fatal(err)
				}
			}
			c.Recover("n3")
			s, _, err := n3.Query(ctx)
			if err != nil {
				t.Fatalf("query on recovered node: %v", err)
			}
			if got := s.(*crdt.GCounter).Value(); got != 4 {
				t.Fatalf("value = %d, want 4 (crash-recovery keeps state and learns the rest)", got)
			}
		})
	}
}

func TestClusterLossyNetwork(t *testing.T) {
	cfg := testConfig(3)
	cfg.RetransmitInterval = 10 * time.Millisecond
	c := newStepped(t, transport.Net{Loss: 0.15}.Fabric(11), cfg)
	ctx := context.Background()

	n1, n2 := c.Node("n1"), c.Node("n2")
	for i := 0; i < 10; i++ {
		if _, err := n1.Update(ctx, incSelf(n1)); err != nil {
			t.Fatalf("update %d: %v", i, err)
		}
	}
	s, _, err := n2.Query(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if got := s.(*crdt.GCounter).Value(); got != 10 {
		t.Fatalf("value = %d, want 10 despite loss", got)
	}
}

func TestClusterDelayedNetwork(t *testing.T) {
	mesh := transport.NewMesh(transport.WithDelay(100*time.Microsecond, 2*time.Millisecond), transport.WithSeed(3))
	defer mesh.Close()
	c, err := New(mesh, testConfig(3))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := ctxWith(t, 20*time.Second)
	n1 := c.Node("n1")
	for i := 0; i < 5; i++ {
		if _, err := n1.Update(ctx, incSelf(n1)); err != nil {
			t.Fatal(err)
		}
	}
	s, _, err := c.Node("n2").Query(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if got := s.(*crdt.GCounter).Value(); got != 5 {
		t.Fatalf("value = %d", got)
	}
}

func TestNodeCloseUnblocksClients(t *testing.T) {
	mesh := transport.NewMesh()
	defer mesh.Close()
	c, err := New(mesh, testConfig(3))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// Crash the other two so the request can never finish; then close.
	c.Crash("n2")
	c.Crash("n3")
	n1 := c.Node("n1")
	errCh := make(chan error, 1)
	go func() {
		_, err := n1.Update(context.Background(), incSelf(n1))
		errCh <- err
	}()
	waitOnLoop(t, n1, DefaultKey, func(s *shard) bool { return slices.Contains(s.busy, s.keys[DefaultKey]) })
	if err := n1.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-errCh:
		if !errors.Is(err, ErrStopped) {
			t.Fatalf("err = %v, want ErrStopped", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("client still blocked after Close")
	}
	if err := n1.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}

func TestClusterContextCancel(t *testing.T) {
	mesh := transport.NewMesh()
	defer mesh.Close()
	c, err := New(mesh, testConfig(3))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	n1 := c.Node("n1")
	if _, _, err := n1.Query(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestClusterQueryStatsPaths(t *testing.T) {
	fab := transport.LAN().Fabric(1)
	c := newStepped(t, fab, testConfig(3))
	ctx := context.Background()

	n1 := c.Node("n1")
	if _, err := n1.Update(ctx, incSelf(n1)); err != nil {
		t.Fatal(err)
	}
	// Let the third MERGE land everywhere, then a quiet-state query must
	// use the consistent-quorum fast path.
	fab.RunFor(50 * time.Millisecond)
	_, stats, err := n1.Query(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Path != core.LearnConsistentQuorum || stats.RoundTrips != 1 {
		t.Fatalf("stats = %+v, want consistent quorum in 1 RTT", stats)
	}
}

func TestClusterUpdateFunctionError(t *testing.T) {
	mesh := transport.NewMesh()
	defer mesh.Close()
	c, err := New(mesh, testConfig(3))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := ctxWith(t, 5*time.Second)

	boom := errors.New("boom")
	_, err = c.Node("n1").Update(ctx, func(crdt.State) (crdt.State, error) { return nil, boom })
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
}

func TestNewClusterRejectsBadConfig(t *testing.T) {
	mesh := transport.NewMesh()
	defer mesh.Close()
	for name, breakCfg := range map[string]func(*Config){
		"nil initial state": func(cfg *Config) { cfg.Initial = nil },
		"duplicate member":  func(cfg *Config) { cfg.Members = []transport.NodeID{"n1", "n1", "n2"} },
	} {
		cfg := testConfig(3)
		breakCfg(&cfg)
		if _, err := New(mesh, cfg); err == nil {
			t.Fatalf("%s accepted", name)
		}
	}
}

// padSlots sizes checker.PaddedCounter(padSlots), the initial payload
// that puts a test's keys above the replica wire's digest/delta size
// switch; reads of such keys subtract its value, padSlots.
const padSlots = 128

// stateSizes are TestClusterStateSizes's two initial payloads, below and
// above the replica wire's size switch.
var stateSizes = []struct {
	name    string
	initial *crdt.GCounter
}{{"small", crdt.NewGCounter()}, {"large", checker.PaddedCounter(padSlots)}}

// TestClusterStateSizes runs a mixed workload over a stepped cluster below
// and above the replica wire's size switch and requires identical
// linearizable results, with the fast-path counters proving which frames
// were used, and a crash/recover cycle (which drops the survivors' digest
// caches via ForgetPeer) surviving on both sides.
func TestClusterStateSizes(t *testing.T) {
	for _, tc := range stateSizes {
		t.Run(tc.name, func(t *testing.T) { runStateSizes(t, tc.initial, 5) })
	}
}

// TestClusterStateSizesReplays: a stepped cluster is a pure function of
// its seed, so two runs of TestClusterStateSizes's scenario give the same
// transcript — every op's result and stats, the virtual end time and
// Fabric.Stats(). Crash's ForgetPeer fan-out walking the node map would
// break it.
func TestClusterStateSizesReplays(t *testing.T) {
	for _, tc := range stateSizes {
		t.Run(tc.name, func(t *testing.T) {
			if a, b := runStateSizes(t, tc.initial, 5), runStateSizes(t, tc.initial, 5); a != b {
				t.Fatalf("two runs of seed 5 differ:\n%s\n---\n%s", a, b)
			}
		})
	}
}

// runStateSizes runs TestClusterStateSizes's scenario from seed and
// returns its transcript.
func runStateSizes(t *testing.T, initial *crdt.GCounter, seed int64) string {
	t.Helper()
	fab := transport.LAN().Fabric(seed)
	cfg := testConfig(3)
	cfg.Initial = initial
	offset := initial.Value()
	c := newStepped(t, fab, cfg)
	var out strings.Builder
	ctx := context.Background()
	n1, n2, n3 := c.Node("n1"), c.Node("n2"), c.Node("n3")
	for i := 0; i < 6; i++ {
		ust, err := n1.Update(ctx, incSelf(n1))
		if err != nil {
			t.Fatal(err)
		}
		s, qst, err := n2.Query(ctx)
		if err != nil {
			t.Fatal(err)
		}
		v := s.(*crdt.GCounter).Value() - offset
		if v != uint64(i+1) {
			t.Fatalf("read %d after %d updates", v, i+1)
		}
		fmt.Fprintf(&out, "update %+v, read %d %+v at %v\n", ust, v, qst, fab.Now())
	}

	// Crash n3 (survivors forget it), keep working, recover, and require
	// it to catch up and serve.
	c.Crash("n3")
	if _, err := n1.Update(ctx, incSelf(n1)); err != nil {
		t.Fatal(err)
	}
	c.Recover("n3")
	var v uint64
	deadline := fab.Now() + 10*time.Second
	for {
		s, _, err := n3.Query(ctx)
		if err == nil {
			v = s.(*crdt.GCounter).Value() - offset
			break
		}
		if fab.Now() > deadline {
			t.Fatalf("n3 never recovered: %v", err)
		}
		fmt.Fprintf(&out, "n3 read: %v at %v\n", err, fab.Now())
		fab.RunFor(10 * time.Millisecond)
	}
	if v != 7 {
		t.Fatalf("recovered read = %d, want 7", v)
	}

	counters := n1.Counters()
	counters.Add(n2.Counters())
	counters.Add(n3.Counters())
	if offset == 0 {
		if counters.DigestReplies != 0 || counters.DeltaMerges != 0 || counters.DigestMerges != 0 {
			t.Fatalf("a small state used digest frames: %+v", counters)
		}
	} else if counters.DigestReplies == 0 || counters.DeltaMerges == 0 {
		t.Fatalf("large-state fast paths unused: digestReplies=%d deltaMerges=%d",
			counters.DigestReplies, counters.DeltaMerges)
	}
	fmt.Fprintf(&out, "n3 read %d\ncounters %+v\nend %v\nstats %+v\n", v, counters, fab.Now(), fab.Stats())
	return out.String()
}

// TestHandleInboundNeverBlocks is the regression test for the
// head-of-line bug: handleInbound runs on the transport's delivery
// goroutine, and with a shard's event loop wedged and its 8192-slot
// event queue full it used to park that goroutine — stalling every
// peer's replica traffic behind one slow node. It must instead drop,
// count, and return immediately, and the node must serve normally once
// the loop resumes.
func TestHandleInboundNeverBlocks(t *testing.T) {
	mesh := transport.NewMesh()
	defer mesh.Close()
	c, err := New(mesh, testConfig(3))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	n1 := c.Node("n1")

	// Wedge the default key's shard loop on a call. Frames are
	// routed by envelope key before they reach any loop, so the flood
	// must target the wedged shard's keys to fill its queue.
	sh := n1.shardOf(DefaultKey)
	started, unblock := make(chan struct{}), make(chan struct{})
	go sh.call(func() { close(started); <-unblock })
	<-started

	// Flood well past the queue capacity from this (foreign) goroutine,
	// exactly as the transport's delivery goroutine would, with decodable
	// envelopes addressed to the wedged shard.
	frame := wire.PackEnvelope(DefaultKey, []byte("junk"))
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 3*cap(sh.queue()); i++ {
			n1.handleInbound("n2", frame)
		}
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("handleInbound blocked on a full event queue")
	}

	close(unblock)
	ctx := ctxWith(t, 10*time.Second)
	if _, err := n1.Update(ctx, incSelf(n1)); err != nil {
		t.Fatalf("node wedged after inbound flood: %v", err)
	}
	if got := n1.Counters().InboundDropped; got == 0 {
		t.Fatal("no dropped inbound frame was counted")
	}
}
