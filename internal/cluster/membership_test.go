package cluster

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"crdtsmr/internal/checker"
	"crdtsmr/internal/core"
	"crdtsmr/internal/crdt"
	"crdtsmr/internal/transport"
)

// TestReconfigureGrowBootstrapsJoiner: the basic online-growth path. A
// joiner added to the mesh refuses commands (it holds no quorum and must
// not serve reads before its first joint-quorum-committed epoch); after a
// member reconfigures it in, it serves both updates and queries, and its
// very first read observes data written before it existed — the
// configuration push carries the full payload, so joining IS the state
// bootstrap.
func TestReconfigureGrowBootstrapsJoiner(t *testing.T) {
	mesh := transport.NewMesh()
	defer mesh.Close()
	cfg := testConfig(3)
	c, err := New(mesh, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := ctxWith(t, 30*time.Second)

	if _, err := c.Node("n1").UpdateKey(ctx, "k", incBy("n1", 7)); err != nil {
		t.Fatal(err)
	}

	n4, err := c.AddNode("n4", cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := n4.UpdateKey(ctx, "k", incBy("n4", 1)); !errors.Is(err, core.ErrNotMember) {
		t.Fatalf("joiner update err = %v, want ErrNotMember", err)
	}
	if _, _, err := n4.QueryKey(ctx, "k"); !errors.Is(err, core.ErrNotMember) {
		t.Fatalf("joiner query err = %v, want ErrNotMember", err)
	}

	if err := c.Node("n1").Reconfigure(ctx, members(4)); err != nil {
		t.Fatalf("reconfigure 3→4: %v", err)
	}
	if got := c.Node("n1").Epoch(); got != 1 {
		t.Fatalf("n1 epoch = %d after first reconfiguration, want 1", got)
	}

	// The joint quorum can commit before the joiner's own ack (a majority
	// of old and of new members suffices), so the joiner may adopt the
	// configuration moments after Reconfigure returns.
	s, err := waitServing(ctx, n4, "k")
	if err != nil {
		t.Fatalf("joiner query after reconfigure: %v", err)
	}
	if got := s.(*crdt.GCounter).Value(); got != 7 {
		t.Fatalf("joiner read %d, want 7 (bootstrap payload missing)", got)
	}
	if _, err := n4.UpdateKey(ctx, "k", incBy("n4", 3)); err != nil {
		t.Fatalf("joiner update after reconfigure: %v", err)
	}
	s, _, err = c.Node("n2").QueryKey(ctx, "k")
	if err != nil {
		t.Fatal(err)
	}
	if got := s.(*crdt.GCounter).Value(); got != 10 {
		t.Fatalf("read %d after joiner update, want 10", got)
	}
}

// waitServing retries a query until the node serves it — riding out the
// window between a committed reconfiguration and its propagation to this
// node (the joint quorum does not require every new member's ack).
func waitServing(ctx context.Context, n *Node, key string) (crdt.State, error) {
	for {
		s, _, err := n.QueryKey(ctx, key)
		if !errors.Is(err, core.ErrNotMember) {
			return s, err
		}
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-time.After(time.Millisecond):
		}
	}
}

// TestLazyReplicaUsesCurrentMembership pins the tentpole bugfix at the
// runtime layer: a key first touched AFTER a reconfiguration must get a
// replica built from the node's current membership view, not the frozen
// boot-time Config.Members. The probe: shrink the group to {n1} alone,
// take the other nodes down, then update a brand-new key at n1 — under
// the current view the quorum is 1 and the update completes locally;
// under the frozen view it would wait forever for a majority of three.
func TestLazyReplicaUsesCurrentMembership(t *testing.T) {
	mesh := transport.NewMesh()
	defer mesh.Close()
	c, err := New(mesh, testConfig(3))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := ctxWith(t, 20*time.Second)

	if err := c.Node("n1").Reconfigure(ctx, []transport.NodeID{"n1"}); err != nil {
		t.Fatalf("reconfigure 3→1: %v", err)
	}
	mesh.SetDown("n2", true)
	mesh.SetDown("n3", true)

	if _, err := c.Node("n1").UpdateKey(ctx, "fresh/key", incBy("n1", 1)); err != nil {
		t.Fatalf("update on lazily instantiated key under single-member config: %v", err)
	}
	s, _, err := c.Node("n1").QueryKey(ctx, "fresh/key")
	if err != nil {
		t.Fatalf("query on lazily instantiated key: %v", err)
	}
	if got := s.(*crdt.GCounter).Value(); got != 1 {
		t.Fatalf("read %d, want 1", got)
	}
	if got := c.Node("n1").Members(); len(got) != 1 || got[0] != "n1" {
		t.Fatalf("n1 membership view = %v, want [n1]", got)
	}
}

// TestForgetPeerCoversLazyReplicas: a key first touched after ForgetPeer
// makes quorum with the survivors, and once the peer is back the key
// takes its updates.
func TestForgetPeerCoversLazyReplicas(t *testing.T) {
	mesh := transport.NewMesh()
	defer mesh.Close()
	c, err := New(mesh, testConfig(3))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := ctxWith(t, 20*time.Second)
	n1 := c.Node("n1")

	mesh.SetDown("n2", true)
	n1.ForgetPeer("n2")
	if _, err := n1.UpdateKey(ctx, "late/key", incBy("n1", 1)); err != nil {
		t.Fatalf("update on key instantiated after ForgetPeer: %v", err)
	}

	mesh.SetDown("n2", false)
	if _, err := c.Node("n2").UpdateKey(ctx, "late/key", incBy("n2", 1)); err != nil {
		t.Fatal(err)
	}
	st, _, err := n1.QueryKey(ctx, "late/key")
	if err != nil {
		t.Fatal(err)
	}
	if got := st.(*crdt.GCounter).Value(); got != 2 {
		t.Fatalf("late/key = %d at n1, want 2", got)
	}
}

// TestFlushOffsetGuards pins the batch-interval offset fix: the offset
// must be well-defined for an empty member list and for a node outside
// the member set (a joiner, or a node a reconfiguration removed) — the
// old expression divided by len(members) and treated "absent" as index 0.
func TestFlushOffsetGuards(t *testing.T) {
	interval := 10 * time.Millisecond
	ids := members(4)
	if got := flushOffset(nil, "n1", interval); got != interval {
		t.Fatalf("flushOffset(empty) = %v, want %v", got, interval)
	}
	if got := flushOffset(ids, "stranger", interval); got != interval {
		t.Fatalf("flushOffset(absent id) = %v, want %v", got, interval)
	}
	var seen []time.Duration
	for _, id := range ids {
		off := flushOffset(ids, id, interval)
		if off <= 0 || off > interval {
			t.Fatalf("flushOffset(%s) = %v outside (0, %v]", id, off, interval)
		}
		for _, prev := range seen {
			if prev == off {
				t.Fatalf("flushOffset collision at %v: members must de-phase", off)
			}
		}
		seen = append(seen, off)
	}
	if memberIndex(ids, "stranger") != -1 {
		t.Fatal("memberIndex of absent id must be -1")
	}
}

// TestBatchedClusterSurvivesReconfigure: with §3.6 batching enabled, a
// membership change restarts the flush cadence under a new generation
// (the node's slot in the window moves with its member index). The old
// chain must die and exactly one new chain must keep flushing — a lost
// cadence would strand every batched command forever.
func TestBatchedClusterSurvivesReconfigure(t *testing.T) {
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

	if _, err := c.Node("n2").UpdateKey(ctx, "k", incBy("n2", 1)); err != nil {
		t.Fatal(err)
	}
	if err := c.Node("n1").Reconfigure(ctx, []transport.NodeID{"n1", "n2"}); err != nil {
		t.Fatalf("reconfigure 3→2: %v", err)
	}
	// Batched commands after the membership change must still flush, on
	// every surviving member.
	for _, id := range []transport.NodeID{"n1", "n2"} {
		if _, err := c.Node(id).UpdateKey(ctx, "k", incBy(string(id), 1)); err != nil {
			t.Fatalf("batched update at %s after reconfigure: %v", id, err)
		}
	}
	s, _, err := c.Node("n1").QueryKey(ctx, "k")
	if err != nil {
		t.Fatal(err)
	}
	if got := s.(*crdt.GCounter).Value(); got != 3 {
		t.Fatalf("read %d after post-reconfigure batches, want 3", got)
	}
	if _, err := c.Node("n3").UpdateKey(ctx, "k", incBy("n3", 1)); !errors.Is(err, core.ErrNotMember) {
		t.Fatalf("removed node update err = %v, want ErrNotMember", err)
	}
}

// TestReconfigureCoversKeyInstantiatedMidFanOut stages the
// reconfigure/instantiation race deterministically. n1's Reconfigure fans
// out to both shards; the shard without DefaultKey sweeps first and finds
// no keys. A peer's MERGE then instantiates k there while DefaultKey's
// shard, the one that publishes the new view, has not run yet, so k
// starts from the old member set. Reconfigure must still bring k to the
// new set, or the removed node keeps serving k forever.
func TestReconfigureCoversKeyInstantiatedMidFanOut(t *testing.T) {
	mesh := transport.NewMesh()
	defer mesh.Close()
	cfg := testConfig(3)
	cfg.Shards = 2
	c, err := New(mesh, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := ctxWith(t, 30*time.Second)
	n1 := c.Node("n1")
	k := "k"
	for i := 0; n1.shardFor(k) == n1.shardFor(DefaultKey); i++ {
		k = fmt.Sprintf("k%d", i)
	}
	home, away := n1.shardOf(DefaultKey), n1.shardOf(k)
	keyConfig := func(s *shard) (cfg core.Config, ok bool) {
		s.call(func() {
			var rep *core.Replica
			if rep, ok = s.replicas[k]; ok {
				cfg = rep.ConfigState()
			}
		})
		return cfg, ok
	}

	// Wedge both shards so the fan-out queues one evReconfig on each.
	wedge := func(s *shard) func() {
		started, unblock := make(chan struct{}), make(chan struct{})
		go s.call(func() { close(started); <-unblock })
		<-started
		return sync.OnceFunc(func() { close(unblock) })
	}
	unwedgeHome, unwedgeAway := wedge(home), wedge(away)
	defer unwedgeHome()
	defer unwedgeAway()
	reconfigured := make(chan error, 1)
	go func() { reconfigured <- n1.Reconfigure(ctx, []transport.NodeID{"n1", "n2"}) }()
	waitFor(t, "the fan-out to queue on both shards", func() bool {
		return len(home.events) == 1 && len(away.events) == 1
	})
	// Let only the away shard run its (empty) sweep.
	unwedgeAway()
	waitFor(t, "the away shard to take its evReconfig", func() bool { return len(away.events) == 0 })
	away.call(func() {})

	if _, err := c.Node("n2").UpdateKey(ctx, k, incBy("n2", 1)); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "n2's MERGE to instantiate k at n1", func() bool {
		_, ok := keyConfig(away)
		return ok
	})
	if cfg, _ := keyConfig(away); cfg.Epoch != 0 {
		t.Fatalf("k instantiated at epoch %d, want 0: the race was not staged", cfg.Epoch)
	}

	unwedgeHome()
	if err := <-reconfigured; err != nil {
		t.Fatalf("reconfigure 3→2: %v", err)
	}
	got, _ := keyConfig(away)
	if want := n1.Epoch(); got.Epoch != want || fmt.Sprint(got.Members) != "[n1 n2]" {
		t.Fatalf("n1's k config = epoch %d members %v, want epoch %d members [n1 n2]", got.Epoch, got.Members, want)
	}
	n3 := c.Node("n3")
	waitFor(t, "n3 to adopt k's new config", func() bool {
		cfg, _ := keyConfig(n3.shardOf(k))
		return cfg.Epoch == got.Epoch
	})
	if _, err := n3.UpdateKey(ctx, k, incBy("n3", 1)); !errors.Is(err, core.ErrNotMember) {
		t.Fatalf("removed node update of k err = %v, want ErrNotMember", err)
	}
}

// waitFor polls cond until it holds, failing the test after 10 s.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.After(10 * time.Second)
	tick := time.NewTicker(time.Millisecond)
	defer tick.Stop()
	for !cond() {
		select {
		case <-deadline:
			t.Fatalf("timed out waiting for %s", what)
		case <-tick.C:
		}
	}
}

// TestMembershipChaosGrowAndShrink is the acceptance chaos test: a live
// 3-node cluster scales to 5 and back to 3 mid-workload, and the full
// recorded history must be per-key linearizable — clients may see
// timeouts during transitions (none are expected here, since n1–n3 are
// members of every configuration), but never an inconsistent read.
// Joiners are verified to refuse reads before their first committed
// epoch and to serve immediately after; removed nodes refuse commands
// after the shrink commits.
func TestMembershipChaosGrowAndShrink(t *testing.T) {
	mesh := transport.NewMesh(transport.WithSeed(41), transport.WithDelay(0, 2*time.Millisecond))
	defer mesh.Close()
	cfg := testConfig(3)
	cfg.Shards = 4
	cfg.RetransmitInterval = 10 * time.Millisecond
	padded := checker.PaddedCounter(padSlots)
	cfg.InitialForKey = func(string) crdt.State { return padded }
	c, err := New(mesh, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := ctxWith(t, 120*time.Second)

	const nKeys = 8
	const opsPerPhase = 3
	core3 := members(3)
	kh := checker.NewKeyedHistory()

	phase := func(serve []transport.NodeID) {
		var wg sync.WaitGroup
		for k := 0; k < nKeys; k++ {
			key := fmt.Sprintf("key/%d", k)
			at := serve[k%len(serve)]
			wg.Add(1)
			go func(key string, at transport.NodeID) {
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

					id = h.Begin(checker.OpRead)
					s, _, err := n.QueryKey(ctx, key)
					if err != nil {
						h.Discard(id)
						t.Errorf("query %s at %s: %v", key, at, err)
						return
					}
					h.End(id, s.(*crdt.GCounter).Value()-padSlots)
				}
			}(key, at)
		}
		wg.Wait()
	}

	phase(core3) // healthy 3-node baseline

	// Grow 3→5. The joiners must refuse reads until their first
	// joint-quorum-committed epoch.
	n4, err := c.AddNode("n4", cfg)
	if err != nil {
		t.Fatal(err)
	}
	n5, err := c.AddNode("n5", cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range []*Node{n4, n5} {
		if _, _, err := j.QueryKey(ctx, "key/0"); !errors.Is(err, core.ErrNotMember) {
			t.Fatalf("joiner %s read before committed epoch: err = %v, want ErrNotMember", j.ID(), err)
		}
	}
	// Reconfigure mid-workload: the old members keep serving while the
	// membership change commits under the joint quorum; their in-flight
	// requests migrate across the epoch bump and retransmission repairs
	// any frame refused during the transition.
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		phase(core3)
	}()
	if err := c.Node("n1").Reconfigure(ctx, members(5)); err != nil {
		t.Fatalf("reconfigure 3→5: %v", err)
	}
	wg.Wait()

	// Let the commit propagate to the joiners for every key before they
	// serve their share of the workload (their own acks are not required
	// for the joint quorum).
	for _, j := range []*Node{n4, n5} {
		for k := 0; k < nKeys; k++ {
			if _, err := waitServing(ctx, j, fmt.Sprintf("key/%d", k)); err != nil {
				t.Fatalf("joiner %s never began serving key/%d: %v", j.ID(), k, err)
			}
		}
	}

	phase(members(5)) // all five serve, joiners included

	// Shrink 5→3 mid-workload on the surviving members.
	wg.Add(1)
	go func() {
		defer wg.Done()
		phase(core3)
	}()
	if err := c.Node("n1").Reconfigure(ctx, core3); err != nil {
		t.Fatalf("reconfigure 5→3: %v", err)
	}
	wg.Wait()

	// The removed nodes refuse commands once the shrink reaches them.
	for _, j := range []*Node{n4, n5} {
		if _, err := j.UpdateKey(ctx, "key/0", incBy("late", 1)); !errors.Is(err, core.ErrNotMember) {
			t.Fatalf("removed %s update err = %v, want ErrNotMember", j.ID(), err)
		}
	}
	if err := c.RemoveNode("n4"); err != nil {
		t.Fatal(err)
	}
	if err := c.RemoveNode("n5"); err != nil {
		t.Fatal(err)
	}

	phase(core3) // back to three, the departed endpoints gone for good
	if t.Failed() {
		return
	}
	if err := checker.CheckKeyedLinearizable(kh); err != nil {
		t.Fatalf("membership chaos history not per-key linearizable: %v", err)
	}
	if got := c.Node("n1").Epoch(); got != 2 {
		t.Fatalf("n1 epoch = %d after grow+shrink, want 2", got)
	}
}
