package cluster

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"crdtsmr/internal/crdt"
	"crdtsmr/internal/transport"
	"crdtsmr/internal/wire"
)

func TestLinkBudgetTakeRefillDrain(t *testing.T) {
	base := time.Unix(1000, 0)
	b := newLinkBudget(1000, 300, base) // 1000 B/s, 300 B bucket

	// The bucket starts full: 300 bytes are admitted immediately.
	if !b.take(base, 200) {
		t.Fatal("full bucket refused an affordable frame")
	}
	if !b.take(base, 100) {
		t.Fatal("bucket refused the frame that exactly drains it")
	}
	// Empty now; the next frame must wait for refill.
	if b.take(base, 50) {
		t.Fatal("empty bucket admitted a frame")
	}
	b.delay("k", make([]byte, 50))
	if got := b.delayed; got != 1 {
		t.Fatalf("delayed = %d, want 1", got)
	}
	// With a backlog, new traffic must not overtake it even when the
	// bucket could afford it.
	if b.take(base.Add(time.Second), 10) {
		t.Fatal("frame overtook the delayed backlog")
	}
	// eta for the 50-byte head at 1000 B/s from empty: 50 ms.
	if eta := b.eta(base); eta <= 0 || eta > 50*time.Millisecond {
		t.Fatalf("eta = %v, want (0, 50ms]", eta)
	}
	// After 100 ms the bucket holds 100 tokens: the head drains.
	out := b.drain(base.Add(100 * time.Millisecond))
	if len(out) != 1 || out[0].key != "k" || len(out[0].packed) != 50 {
		t.Fatalf("drain = %+v, want the one 50-byte frame for k", out)
	}
	if len(b.queue) != 0 {
		t.Fatalf("queue not empty after drain: %d", len(b.queue))
	}
	// Refill caps at the burst no matter how long the link idles: the
	// full burst is affordable, and nothing more at the same instant.
	idle := base.Add(time.Hour)
	if !b.take(idle, 300) {
		t.Fatal("bucket refused its full burst after a long idle")
	}
	if b.take(idle, 1) {
		t.Fatal("bucket held more than its burst capacity after a long idle")
	}
}

func TestLinkBudgetCoalescesSameKey(t *testing.T) {
	base := time.Unix(0, 0)
	b := newLinkBudget(1000, 100, base)
	if !b.take(base, 100) {
		t.Fatal("full bucket refused")
	}
	b.delay("a", []byte("old-a"))
	b.delay("b", []byte("old-b"))
	b.delay("a", []byte("new-a")) // replaces old-a in place
	if b.coalesced != 1 || b.delayed != 3 {
		t.Fatalf("coalesced=%d delayed=%d, want 1 and 3", b.coalesced, b.delayed)
	}
	out := b.drain(base.Add(time.Second))
	if len(out) != 2 {
		t.Fatalf("drained %d envelopes, want 2", len(out))
	}
	// FIFO order is by first enqueue; the payload is the newest.
	if out[0].key != "a" || string(out[0].packed) != "new-a" {
		t.Fatalf("head = %s %q, want a new-a", out[0].key, out[0].packed)
	}
	if out[1].key != "b" || string(out[1].packed) != "old-b" {
		t.Fatalf("second = %s %q, want b old-b", out[1].key, out[1].packed)
	}
}

func TestLinkBudgetOversizedFrame(t *testing.T) {
	base := time.Unix(0, 0)
	b := newLinkBudget(1000, 200, base)
	// A frame larger than the whole bucket is admitted when the bucket is
	// full — refusing it forever would wedge the link, not pace it.
	if !b.take(base, 500) {
		t.Fatal("full bucket refused an oversized frame")
	}
	if b.tokens != 0 {
		t.Fatalf("tokens = %v after oversized send, want 0", b.tokens)
	}
	// And it drains from the queue once the bucket refills to capacity.
	b.delay("k", make([]byte, 500))
	if out := b.drain(base.Add(50 * time.Millisecond)); len(out) != 0 {
		t.Fatal("oversized frame drained before the bucket was full")
	}
	if out := b.drain(base.Add(time.Second)); len(out) != 1 {
		t.Fatal("oversized frame never drained")
	}
}

// TestLinkBudgetDeterministic feeds the same seeded schedule of admits,
// delays, and drains through two budget instances and requires identical
// traces: the budget takes time as an argument and does no I/O of its
// own, so under a virtual clock the whole pacing layer must replay
// exactly (the same property the simulation suites rely on).
func TestLinkBudgetDeterministic(t *testing.T) {
	run := func() []string {
		base := time.Unix(0, 0)
		b := newLinkBudget(1000, 300, base)
		rng := rand.New(rand.NewSource(42))
		var trace []string
		now := base
		for i := 0; i < 1000; i++ {
			now = now.Add(time.Duration(rng.Intn(5000)) * time.Microsecond)
			key := fmt.Sprintf("k%d", rng.Intn(4))
			n := 50 + rng.Intn(300)
			if b.take(now, n) {
				trace = append(trace, fmt.Sprintf("send %s %d", key, n))
			} else {
				b.delay(key, make([]byte, n))
				trace = append(trace, fmt.Sprintf("queue %s %d", key, n))
			}
			if rng.Intn(3) == 0 {
				for _, d := range b.drain(now) {
					trace = append(trace, fmt.Sprintf("drain %s %d", d.key, len(d.packed)))
				}
				trace = append(trace, fmt.Sprintf("eta %v", b.eta(now)))
			}
		}
		return trace
	}
	first, second := run(), run()
	if !reflect.DeepEqual(first, second) {
		t.Fatal("same-seed budget schedules diverged")
	}
}

// TestClusterLinkBudgetPacesAndConverges runs a cluster whose replica
// links are squeezed far below the workload's natural byte rate and
// requires (a) every command still completes and converges — pacing
// degrades latency, never correctness — and (b) the budget visibly
// worked: envelopes were delayed, and retransmissions of a paced key
// coalesced into the queued frame instead of piling up behind it.
func TestClusterLinkBudgetPacesAndConverges(t *testing.T) {
	mesh := transport.NewMesh()
	defer mesh.Close()
	cfg := testConfig(3)
	cfg.LinkBudget = 512
	c, err := New(mesh, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// Drain every link's one-second bucket, so the 512 B/s rate governs
	// from the first frame.
	for _, n := range c.Nodes() {
		for _, s := range n.shards {
			s.call(func() {
				for _, peer := range cfg.Members {
					b := s.budgetFor(peer)
					b.take(s.n.cfg.Clock.Now(), int(b.tokens))
				}
			})
		}
	}

	ctx := ctxWith(t, 30*time.Second)
	n1 := c.Node("n1")
	const updates = 5
	for i := 0; i < updates; i++ {
		if _, err := n1.Update(ctx, incSelf(n1)); err != nil {
			t.Fatalf("update %d under link budget: %v", i, err)
		}
	}
	s, _, err := c.Node("n2").Query(ctx)
	if err != nil {
		t.Fatalf("query under link budget: %v", err)
	}
	if got := s.(*crdt.GCounter).Value(); got != updates {
		t.Fatalf("value = %d, want %d", got, updates)
	}

	var sum, perNode = n1.Counters(), c.Node("n2").Counters()
	sum.Add(perNode)
	sum.Add(c.Node("n3").Counters())
	if sum.BudgetDelayed == 0 {
		t.Fatalf("no envelope was ever delayed: %+v", sum)
	}
	if sum.BudgetCoalesced == 0 {
		t.Fatalf("no delayed envelope coalesced (retransmits should have superseded queued frames): %+v", sum)
	}
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

	// Wedge the default key's shard loop on a side-band call. Frames are
	// routed by envelope key before they reach any loop, so the flood
	// must target the wedged shard's keys to fill its queue.
	sh := n1.shardOf(DefaultKey)
	unblock := make(chan struct{})
	go sh.call(func() { <-unblock })
	time.Sleep(10 * time.Millisecond) // let the loop pick the call up

	// Flood well past the queue capacity from this (foreign) goroutine,
	// exactly as the transport's delivery goroutine would, with decodable
	// envelopes addressed to the wedged shard.
	frame := wire.PackEnvelope(DefaultKey, []byte("junk"))
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 3*cap(sh.events); i++ {
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
