package transport

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// collect accumulates delivered messages behind a mutex so tests can make
// assertions after the transport quiesces.
type collect struct {
	mu   sync.Mutex
	msgs []string
}

func (c *collect) handler(from NodeID, payload []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.msgs = append(c.msgs, string(from)+":"+string(payload))
}

func (c *collect) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.msgs)
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("condition not reached in time")
}

func TestMeshDelivers(t *testing.T) {
	m := NewMesh()
	defer m.Close()
	var got collect
	a := m.Join("a", func(NodeID, []byte) {})
	m.Join("b", got.handler)
	for i := 0; i < 10; i++ {
		a.Send("b", []byte(fmt.Sprintf("m%d", i)))
	}
	waitFor(t, func() bool { return got.len() == 10 })
	st := m.Stats()
	if st.Sent != 10 || st.Delivered != 10 || st.Dropped != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestMeshSelfSend(t *testing.T) {
	m := NewMesh()
	defer m.Close()
	var got collect
	var a Conn
	a = m.Join("a", got.handler)
	a.Send("a", []byte("loop"))
	waitFor(t, func() bool { return got.len() == 1 })
}

func TestMeshDownNodeDropsTraffic(t *testing.T) {
	m := NewMesh()
	defer m.Close()
	var got collect
	a := m.Join("a", func(NodeID, []byte) {})
	m.Join("b", got.handler)
	m.SetDown("b", true)
	a.Send("b", []byte("lost"))
	waitFor(t, func() bool { return m.Stats().Dropped == 1 })
	m.SetDown("b", false)
	a.Send("b", []byte("ok"))
	waitFor(t, func() bool { return got.len() == 1 })
}

func TestMeshPartitionAndHeal(t *testing.T) {
	m := NewMesh()
	defer m.Close()
	var got collect
	a := m.Join("a", func(NodeID, []byte) {})
	m.Join("b", got.handler)
	m.Join("c", func(NodeID, []byte) {})
	m.Partition([]NodeID{"a"}, []NodeID{"b", "c"})
	a.Send("b", []byte("blocked"))
	waitFor(t, func() bool { return m.Stats().Dropped == 1 })
	m.Heal()
	a.Send("b", []byte("through"))
	waitFor(t, func() bool { return got.len() == 1 })
}

// TestMeshRepartition checks that a second Partition call replaces the
// first split rather than stacking on top of it, that traffic within one
// side flows, and that a node named in no group is unrestricted — the
// semantics the chaos tests lean on when they move the partition line
// between phases.
func TestMeshRepartition(t *testing.T) {
	m := NewMesh()
	defer m.Close()
	var gotB, gotC, gotD collect
	a := m.Join("a", func(NodeID, []byte) {})
	b := m.Join("b", gotB.handler)
	m.Join("c", gotC.handler)
	m.Join("d", gotD.handler)

	// First split: {a} | {b, c}; d is in no group and reaches everyone.
	m.Partition([]NodeID{"a"}, []NodeID{"b", "c"})
	a.Send("b", []byte("x")) // across the split: dropped
	waitFor(t, func() bool { return m.Stats().Dropped == 1 })
	b.Send("c", []byte("x")) // within a side: delivered
	waitFor(t, func() bool { return gotC.len() == 1 })
	a.Send("d", []byte("x")) // to an unlisted node: delivered
	waitFor(t, func() bool { return gotD.len() == 1 })

	// Moving the line must unblock a→b and block b→c.
	m.Partition([]NodeID{"a", "b"}, []NodeID{"c"})
	dropped := m.Stats().Dropped
	b.Send("c", []byte("x"))
	waitFor(t, func() bool { return m.Stats().Dropped == dropped+1 })
	a.Send("b", []byte("x"))
	waitFor(t, func() bool { return gotB.len() == 1 })
	if gotC.len() != 1 {
		t.Fatalf("c received %d messages across the moved partition line, want 1", gotC.len())
	}
}

func TestMeshBlockIsDirectional(t *testing.T) {
	m := NewMesh()
	defer m.Close()
	var gotA, gotB collect
	a := m.Join("a", gotA.handler)
	b := m.Join("b", gotB.handler)
	m.Block("a", "b")
	a.Send("b", []byte("x")) // dropped
	b.Send("a", []byte("y")) // delivered
	waitFor(t, func() bool { return gotA.len() == 1 })
	if gotB.len() != 0 {
		t.Fatal("blocked direction delivered")
	}
	m.Unblock("a", "b")
	a.Send("b", []byte("x2"))
	waitFor(t, func() bool { return gotB.len() == 1 })
}

func TestMeshDelayReorders(t *testing.T) {
	m := NewMesh(WithDelay(0, 3*time.Millisecond), WithSeed(42))
	defer m.Close()
	var got collect
	a := m.Join("a", func(NodeID, []byte) {})
	m.Join("b", got.handler)
	const n = 200
	for i := 0; i < n; i++ {
		a.Send("b", []byte(fmt.Sprintf("%04d", i)))
	}
	waitFor(t, func() bool { return got.len() == n })
	inOrder := true
	got.mu.Lock()
	for i := 1; i < len(got.msgs); i++ {
		if got.msgs[i] < got.msgs[i-1] {
			inOrder = false
			break
		}
	}
	got.mu.Unlock()
	if inOrder {
		t.Fatal("expected at least one reordering under random delay")
	}
}

func TestMeshCloseIdempotent(t *testing.T) {
	m := NewMesh()
	c := m.Join("a", func(NodeID, []byte) {})
	m.Close()
	m.Close()
	c.Send("b", []byte("after close")) // must not panic
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestMeshSendToUnknownPeer(t *testing.T) {
	m := NewMesh()
	defer m.Close()
	a := m.Join("a", func(NodeID, []byte) {})
	a.Send("ghost", []byte("x"))
	waitFor(t, func() bool { return m.Stats().Dropped == 1 })
}

func TestFabricDeterministicInterleaving(t *testing.T) {
	run := func(seed int64) []string {
		f := NewFabric(seed)
		var log []string
		a := f.Join("a", func(from NodeID, p []byte) { log = append(log, "a<-"+string(p)) })
		f.Join("b", func(from NodeID, p []byte) { log = append(log, "b<-"+string(p)) })
		for i := 0; i < 5; i++ {
			a.Send("b", []byte(fmt.Sprintf("m%d", i)))
		}
		f.Drain(100)
		return log
	}
	first := run(123)
	second := run(123)
	if len(first) != 5 {
		t.Fatalf("delivered %d, want 5", len(first))
	}
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("same seed diverged: %v vs %v", first, second)
		}
	}
	other := run(456)
	same := true
	for i := range first {
		if first[i] != other[i] {
			same = false
			break
		}
	}
	if same {
		t.Log("seeds 123 and 456 produced the same order (possible but unlikely)")
	}
}

func TestFabricHandlersCanSend(t *testing.T) {
	f := NewFabric(1)
	var finalGot string
	var b, c Conn
	a := f.Join("a", func(NodeID, []byte) {})
	b = f.Join("b", func(from NodeID, p []byte) { c.Send("c", append([]byte("fwd:"), p...)) })
	_ = b
	c = f.Join("c", func(from NodeID, p []byte) { finalGot = string(p) })
	// Register c's own conn under a separate variable; sending from b's
	// handler uses c's conn (the identity only matters for routing).
	a.Send("b", []byte("x"))
	f.Drain(100)
	if finalGot != "fwd:x" {
		t.Fatalf("got %q", finalGot)
	}
}

func TestFabricDownAndBlocked(t *testing.T) {
	f := NewFabric(9)
	got := 0
	a := f.Join("a", func(NodeID, []byte) {})
	f.Join("b", func(NodeID, []byte) { got++ })
	f.SetDown("b", true)
	a.Send("b", []byte("x"))
	f.Drain(10)
	if got != 0 {
		t.Fatal("delivered to down node")
	}
	f.SetDown("b", false)
	f.Block("a", "b")
	a.Send("b", []byte("x"))
	f.Drain(10)
	if got != 0 {
		t.Fatal("delivered over blocked link")
	}
	f.Unblock("a", "b")
	a.Send("b", []byte("x"))
	f.Drain(10)
	if got != 1 {
		t.Fatalf("got %d, want 1", got)
	}
}

func TestFabricLoss(t *testing.T) {
	f := NewFabric(4)
	f.SetLoss(1.0)
	got := 0
	a := f.Join("a", func(NodeID, []byte) {})
	f.Join("b", func(NodeID, []byte) { got++ })
	for i := 0; i < 10; i++ {
		a.Send("b", []byte("x"))
	}
	f.Drain(100)
	if got != 0 {
		t.Fatalf("loss=1.0 delivered %d", got)
	}
	if f.Stats().Dropped != 10 {
		t.Fatalf("dropped = %d", f.Stats().Dropped)
	}
}

func TestTCPRoundTrip(t *testing.T) {
	var gotB collect
	readyA := make(chan *TCP, 1)
	// Bring up b first on an ephemeral port, then a with b's address.
	b, err := NewTCP("b", "127.0.0.1:0", nil, func(from NodeID, p []byte) {
		gotB.handler(from, p)
		// Reply to a through our own transport.
		tb := <-readyA
		_ = tb // a's transport, to learn its address, is wired below
	})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	var gotA collect
	a, err := NewTCP("a", "127.0.0.1:0", map[NodeID]string{"b": b.Addr()}, gotA.handler)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	readyA <- a

	a.Send("b", []byte("ping"))
	waitFor(t, func() bool { return gotB.len() == 1 })
	gotB.mu.Lock()
	msg := gotB.msgs[0]
	gotB.mu.Unlock()
	if msg != "a:ping" {
		t.Fatalf("b received %q", msg)
	}
	st := a.Stats()
	if st.Sent != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestTCPBidirectional(t *testing.T) {
	var gotA, gotB collect
	b, err := NewTCP("b", "127.0.0.1:0", nil, gotB.handler)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	a, err := NewTCP("a", "127.0.0.1:0", map[NodeID]string{"b": b.Addr()}, gotA.handler)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	// b learns a's address after a is up (address books can be asymmetric).
	b.AddPeer("a", a.Addr())

	for i := 0; i < 50; i++ {
		a.Send("b", []byte(fmt.Sprintf("to-b-%d", i)))
		b.Send("a", []byte(fmt.Sprintf("to-a-%d", i)))
	}
	waitFor(t, func() bool { return gotA.len() == 50 && gotB.len() == 50 })
}

func TestTCPSelfSend(t *testing.T) {
	var got collect
	a, err := NewTCP("a", "127.0.0.1:0", nil, got.handler)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	a.Send("a", []byte("self"))
	waitFor(t, func() bool { return got.len() == 1 })
}

// TestTCPAddPeer: an endpoint constructed without a peer reaches it once
// AddPeer registers the address at runtime — the path a running replica
// takes when a member joins after boot.
func TestTCPAddPeer(t *testing.T) {
	var gotB collect
	b, err := NewTCP("b", "127.0.0.1:0", nil, gotB.handler)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	a, err := NewTCP("a", "127.0.0.1:0", nil, gotB.handler)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()

	a.Send("b", []byte("early"))
	if st := a.Stats(); st.Dropped != 1 {
		t.Fatalf("send before AddPeer: stats = %+v, want 1 drop", st)
	}
	a.AddPeer("b", b.Addr())
	a.Send("b", []byte("late"))
	waitFor(t, func() bool { return gotB.len() == 1 })
}

// TestTCPHelloLearnsDialBack: an endpoint whose address book never
// contained a peer learns the dial-back path from the hello frame the
// peer's own dial advertises — the joiner scenario, where a freshly
// admitted member can dial every configured peer but none of them was
// configured with it, so without the hello their replies are dropped
// forever and the joiner's quorums never complete.
func TestTCPHelloLearnsDialBack(t *testing.T) {
	var gotA, gotB collect
	b, err := NewTCP("b", "127.0.0.1:0", nil, gotB.handler)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	a, err := NewTCP("a", "127.0.0.1:0", map[NodeID]string{"b": b.Addr()}, gotA.handler)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()

	a.Send("b", []byte("request"))
	waitFor(t, func() bool { return gotB.len() == 1 })
	// b never ran AddPeer("a", ...): the reply is deliverable only if the
	// hello on a's dial taught b where a listens.
	b.Send("a", []byte("reply"))
	waitFor(t, func() bool { return gotA.len() == 1 })
	if st := b.Stats(); st.Dropped != 0 {
		t.Fatalf("reply was dropped: stats = %+v", st)
	}
}

// TestTCPHelloUnspecifiedHost: a listener bound to an unspecified host
// advertises an undialable address (":port"); the receiver substitutes
// the host the connection actually came from.
func TestTCPHelloUnspecifiedHost(t *testing.T) {
	var gotA, gotB collect
	b, err := NewTCP("b", "127.0.0.1:0", nil, gotB.handler)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	a, err := NewTCP("a", ":0", map[NodeID]string{"b": b.Addr()}, gotA.handler)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()

	a.Send("b", []byte("request"))
	waitFor(t, func() bool { return gotB.len() == 1 })
	b.Send("a", []byte("reply"))
	waitFor(t, func() bool { return gotA.len() == 1 })
}

func TestTCPSendToUnknownPeerDrops(t *testing.T) {
	a, err := NewTCP("a", "127.0.0.1:0", nil, func(NodeID, []byte) {})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	a.Send("nowhere", []byte("x"))
	if st := a.Stats(); st.Dropped != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestTCPPeerCrashDropsThenRecovers(t *testing.T) {
	var gotB atomic.Int64
	b, err := NewTCP("b", "127.0.0.1:0", nil, func(NodeID, []byte) { gotB.Add(1) })
	if err != nil {
		t.Fatal(err)
	}
	addr := b.Addr()
	a, err := NewTCP("a", "127.0.0.1:0", map[NodeID]string{"b": addr}, func(NodeID, []byte) {})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()

	a.Send("b", []byte("one"))
	waitFor(t, func() bool { return gotB.Load() == 1 })
	b.Close()

	// Sends while b is down are eventually detected and dropped (the first
	// write after a close may appear to succeed due to kernel buffering).
	waitFor(t, func() bool {
		a.Send("b", []byte("void"))
		return a.Stats().Dropped > 0
	})

	// b restarts on the same address; a redials lazily and delivery resumes.
	b2, err := NewTCP("b", addr, nil, func(NodeID, []byte) { gotB.Add(1) })
	if err != nil {
		t.Fatal(err)
	}
	defer b2.Close()
	waitFor(t, func() bool {
		a.Send("b", []byte("again"))
		return gotB.Load() >= 2
	})
}

// TestTCPSendToStalledPeerIsBounded: a peer that accepts a connection but
// never reads fills the socket buffers, after which a frame write misses
// sendTimeout. The Send returns within that bound, the message counts as
// dropped, and the endpoint still delivers to a healthy peer.
func TestTCPSendToStalledPeerIsBounded(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	accepted := make(chan net.Conn, 16)
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			accepted <- conn
		}
	}()
	// release closes the stalled side, which unblocks any write still
	// stuck on it; it must run before a.Close, which waits for writers.
	release := sync.OnceFunc(func() {
		_ = ln.Close()
		for {
			select {
			case conn := <-accepted:
				_ = conn.Close()
			default:
				return
			}
		}
	})
	var gotB collect
	b, err := NewTCP("b", "127.0.0.1:0", nil, gotB.handler)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	a, err := NewTCP("a", "127.0.0.1:0", map[NodeID]string{"stuck": ln.Addr().String(), "b": b.Addr()}, func(NodeID, []byte) {})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	defer release()

	payload := make([]byte, 1<<20)
	longest := make(chan time.Duration, 1)
	go func() {
		var most time.Duration
		for i := 0; i < 256 && a.Stats().Dropped == 0; i++ {
			start := time.Now()
			a.Send("stuck", payload)
			most = max(most, time.Since(start))
		}
		longest <- most
	}()
	select {
	case most := <-longest:
		if a.Stats().Dropped == 0 {
			t.Fatal("256 MiB sent to a peer that never reads, none dropped")
		}
		if most > sendTimeout+time.Second {
			t.Fatalf("longest Send took %v, want at most %v plus slack", most, sendTimeout)
		}
	case <-time.After(sendTimeout + 20*time.Second):
		release()
		t.Fatal("Send to a peer that never reads blocked")
	}
	a.Send("b", []byte("after"))
	waitFor(t, func() bool { return gotB.len() == 1 })
}

// --- per-link byte accounting, one test per substrate ---

func TestMeshByteStatsPerLink(t *testing.T) {
	m := NewMesh()
	defer m.Close()
	var got collect
	a := m.Join("a", func(NodeID, []byte) {})
	b := m.Join("b", got.handler)
	a.Send("b", make([]byte, 100))
	a.Send("b", make([]byte, 50))
	b.Send("a", make([]byte, 7))
	waitFor(t, func() bool { st := m.Stats(); return st.Delivered == 3 })
	st := m.Stats()
	if st.BytesSent != 157 || st.Bytes != 157 {
		t.Fatalf("bytes sent/delivered = %d/%d, want 157/157", st.BytesSent, st.Bytes)
	}
	ab := st.Links[Link{From: "a", To: "b"}]
	if ab.Sent != 2 || ab.BytesSent != 150 || ab.Delivered != 2 || ab.BytesDelivered != 150 {
		t.Fatalf("a→b link = %+v", ab)
	}
	ba := st.Links[Link{From: "b", To: "a"}]
	if ba.Sent != 1 || ba.BytesSent != 7 || ba.BytesDelivered != 7 {
		t.Fatalf("b→a link = %+v", ba)
	}
}

func TestMeshByteStatsCountSendOnDrop(t *testing.T) {
	m := NewMesh()
	defer m.Close()
	a := m.Join("a", func(NodeID, []byte) {})
	m.Join("b", func(NodeID, []byte) {})
	m.SetDown("b", true)
	a.Send("b", make([]byte, 64))
	waitFor(t, func() bool { return m.Stats().Dropped == 1 })
	st := m.Stats()
	if st.BytesSent != 64 || st.Bytes != 0 {
		t.Fatalf("bytes sent/delivered = %d/%d, want 64/0", st.BytesSent, st.Bytes)
	}
	l := st.Links[Link{From: "a", To: "b"}]
	if l.BytesSent != 64 || l.BytesDelivered != 0 {
		t.Fatalf("a→b link = %+v", l)
	}
}

func TestFabricByteStatsPerLink(t *testing.T) {
	f := NewFabric(3)
	a := f.Join("a", func(NodeID, []byte) {})
	b := f.Join("b", func(NodeID, []byte) {})
	a.Send("b", make([]byte, 20))
	b.Send("a", make([]byte, 5))
	f.Drain(10)
	st := f.Stats()
	if st.BytesSent != 25 || st.Bytes != 25 {
		t.Fatalf("bytes sent/delivered = %d/%d, want 25/25", st.BytesSent, st.Bytes)
	}
	ab := st.Links[Link{From: "a", To: "b"}]
	if ab.Sent != 1 || ab.BytesSent != 20 || ab.Delivered != 1 || ab.BytesDelivered != 20 {
		t.Fatalf("a→b link = %+v", ab)
	}
}

func TestFabricDuplication(t *testing.T) {
	f := NewFabric(11)
	f.SetDuplication(0.5)
	got := 0
	a := f.Join("a", func(NodeID, []byte) {})
	f.Join("b", func(NodeID, []byte) { got++ })
	const n = 200
	for i := 0; i < n; i++ {
		a.Send("b", []byte("x"))
	}
	f.Drain(10 * n)
	if got <= n || got >= 3*n {
		t.Fatalf("delivered %d of %d sends with dup=0.5, want strictly more than sent", got, n)
	}
	if int(f.Stats().Delivered) != got {
		t.Fatalf("stats delivered %d != handler count %d", f.Stats().Delivered, got)
	}
}

func TestFabricDuplicationDeterministic(t *testing.T) {
	run := func() uint64 {
		f := NewFabric(21)
		f.SetDuplication(0.3)
		a := f.Join("a", func(NodeID, []byte) {})
		f.Join("b", func(NodeID, []byte) {})
		for i := 0; i < 100; i++ {
			a.Send("b", []byte("x"))
		}
		f.Drain(10000)
		return f.Stats().Delivered
	}
	if first, second := run(), run(); first != second {
		t.Fatalf("same seed diverged under duplication: %d vs %d", first, second)
	}
}

func TestTCPByteStatsPerLink(t *testing.T) {
	var gotB collect
	b, err := NewTCP("b", "127.0.0.1:0", nil, gotB.handler)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	a, err := NewTCP("a", "127.0.0.1:0", map[NodeID]string{"b": b.Addr()}, func(NodeID, []byte) {})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	a.Send("b", make([]byte, 40))
	a.Send("b", make([]byte, 2))
	waitFor(t, func() bool { return gotB.len() == 2 })

	sa := a.Stats()
	if sa.BytesSent != 42 {
		t.Fatalf("a bytes sent = %d, want 42", sa.BytesSent)
	}
	if l := sa.Links[Link{From: "a", To: "b"}]; l.Sent != 2 || l.BytesSent != 42 {
		t.Fatalf("a's a→b link = %+v", l)
	}
	sb := b.Stats()
	if sb.Bytes != 42 {
		t.Fatalf("b bytes delivered = %d, want 42", sb.Bytes)
	}
	if l := sb.Links[Link{From: "a", To: "b"}]; l.Delivered != 2 || l.BytesDelivered != 42 {
		t.Fatalf("b's a→b link = %+v", l)
	}

	// Loopback counts on both sides of the same endpoint.
	a.Send("a", make([]byte, 9))
	waitFor(t, func() bool { return a.Stats().Delivered == 1 })
	if l := a.Stats().Links[Link{From: "a", To: "a"}]; l.BytesSent != 9 || l.BytesDelivered != 9 {
		t.Fatalf("loopback link = %+v", l)
	}
}

func TestFabricDelayOrdersByDeadline(t *testing.T) {
	f := NewFabric(7)
	f.SetDelay(time.Millisecond, time.Millisecond) // fixed latency: FIFO
	var log []string
	a := f.Join("a", func(from NodeID, p []byte) { log = append(log, string(p)) })
	f.Join("b", func(NodeID, []byte) {})
	for i := 0; i < 5; i++ {
		a.Send("a", []byte(fmt.Sprintf("m%d", i)))
	}
	f.Drain(100)
	for i, got := range log {
		if want := fmt.Sprintf("m%d", i); got != want {
			t.Fatalf("fixed-latency delivery reordered: %v", log)
		}
	}
	if f.Now() != time.Millisecond {
		t.Fatalf("virtual clock = %v, want 1ms", f.Now())
	}
}

// TestFabricTimersInterleaveWithMessages pins the run loop's contract:
// timers and deliveries run in deadline order, timers winning ties; a
// message sent later is stamped from the advanced clock; the clock is
// monotone through both and never runs backward. In random-order mode a
// message takes no virtual time, so every pending one precedes the next
// timer.
func TestFabricTimersInterleaveWithMessages(t *testing.T) {
	f := Net{MinDelay: time.Millisecond, MaxDelay: time.Millisecond}.Fabric(1)
	var log []string
	note := func(what string) { log = append(log, fmt.Sprintf("%s@%v", what, f.Now())) }
	conn := f.Join("a", func(NodeID, []byte) {})
	f.Join("b", func(NodeID, []byte) { note("msg") })
	f.Schedule(500*time.Microsecond, func() { note("t1") })
	f.Schedule(time.Millisecond, func() { note("t2") })
	stop := f.Schedule(time.Millisecond, func() { note("stopped") })
	stop()
	conn.Send("b", []byte{1}) // delivers at 1ms, after t1, tied with t2 (timer wins)
	f.Schedule(2*time.Millisecond, func() {
		conn.Send("b", []byte{2}) // stamped at 2ms: delivers at 3ms
		f.Schedule(-time.Millisecond, func() { note("now") })
	})
	f.RunFor(10 * time.Millisecond)
	want := []string{"t1@500µs", "t2@1ms", "msg@1ms", "now@2ms", "msg@3ms"}
	if !reflect.DeepEqual(log, want) {
		t.Fatalf("log = %v, want %v", log, want)
	}
	if f.Now() != 10*time.Millisecond {
		t.Fatalf("Now() = %v after RunFor(10ms)", f.Now())
	}
	f.RunFor(-time.Millisecond)
	if f.Now() != 10*time.Millisecond {
		t.Fatalf("clock moved backward to %v", f.Now())
	}

	r := NewFabric(1)
	log = log[:0]
	rconn := r.Join("a", func(NodeID, []byte) {})
	r.Join("b", func(NodeID, []byte) { log = append(log, fmt.Sprintf("msg@%v", r.Now())) })
	r.Schedule(time.Millisecond, func() { log = append(log, fmt.Sprintf("t@%v", r.Now())) })
	rconn.Send("b", nil)
	rconn.Send("b", nil)
	if !r.RunUntil(func() bool { return len(log) == 3 }) {
		t.Fatalf("random-order run stopped at %v", log)
	}
	if want := []string{"msg@0s", "msg@0s", "t@1ms"}; !reflect.DeepEqual(log, want) {
		t.Fatalf("random-order log = %v, want %v", log, want)
	}
}

// TestFabricTimersDeterministic pins that two fabrics with the same seed
// produce the same timer/message interleaving and clock readings.
func TestFabricTimersDeterministic(t *testing.T) {
	run := func() []string {
		f := LAN().Fabric(99)
		var log []string
		var conns [3]Conn
		for i := range conns {
			conns[i] = f.Join(NodeID(fmt.Sprintf("n%d", i+1)), func(from NodeID, p []byte) {
				log = append(log, fmt.Sprintf("%d<-%s@%v", i, from, f.Now()))
			})
		}
		for i := 0; i < 10; i++ {
			conns[i%3].Send(NodeID(fmt.Sprintf("n%d", (i+1)%3+1)), []byte{byte(i)})
		}
		f.Schedule(2*time.Millisecond, func() { log = append(log, fmt.Sprintf("t@%v", f.Now())) })
		f.RunFor(20 * time.Millisecond)
		return log
	}
	a, b := run(), run()
	if len(a) != 11 || !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed diverged:\n%v\n%v", a, b)
	}
}

func TestFabricDelayDeterministicAndJittered(t *testing.T) {
	run := func(seed int64) ([]string, time.Duration) {
		f := NewFabric(seed)
		f.SetDelay(500*time.Microsecond, 4*time.Millisecond)
		var log []string
		a := f.Join("a", func(from NodeID, p []byte) { log = append(log, string(p)) })
		f.Join("b", func(NodeID, []byte) {})
		for i := 0; i < 20; i++ {
			a.Send("a", []byte(fmt.Sprintf("m%d", i)))
		}
		f.Drain(100)
		return log, f.Now()
	}
	log1, now1 := run(42)
	log2, now2 := run(42)
	if len(log1) != 20 || now1 != now2 {
		t.Fatalf("same seed diverged: %d delivered, now %v vs %v", len(log1), now1, now2)
	}
	for i := range log1 {
		if log1[i] != log2[i] {
			t.Fatalf("same seed diverged: %v vs %v", log1, log2)
		}
	}
	reordered := false
	for i, got := range log1 {
		if got != fmt.Sprintf("m%d", i) {
			reordered = true
		}
	}
	if !reordered {
		t.Log("jittered window delivered in send order (possible but unlikely)")
	}
	if now1 > 4*time.Millisecond || now1 < 500*time.Microsecond {
		t.Fatalf("clock %v outside the delay window", now1)
	}
}

// TestFabricAdvanceToMonotone checks the run loop's two clock helpers
// directly: nextDeadline reports the earliest pending deadline (none when
// nothing is pending), and advanceTo never moves the clock backward.
func TestFabricAdvanceToMonotone(t *testing.T) {
	f := NewFabric(1)
	if _, ok := f.nextDeadline(); ok {
		t.Fatal("an empty fabric reported a deadline")
	}
	f.SetDelay(time.Millisecond, time.Millisecond)
	f.advanceTo(3 * time.Millisecond)
	if f.Now() != 3*time.Millisecond {
		t.Fatalf("Now = %v", f.Now())
	}
	f.advanceTo(time.Millisecond) // never backward
	if f.Now() != 3*time.Millisecond {
		t.Fatalf("clock moved backward to %v", f.Now())
	}
	a := f.Join("a", func(NodeID, []byte) {})
	a.Send("a", nil)
	if at, ok := f.nextDeadline(); !ok || at != 4*time.Millisecond {
		t.Fatalf("nextDeadline = %v, %v; want 4ms, true", at, ok)
	}
}

func TestFabricDelayDuplicationDrawsFreshDeadline(t *testing.T) {
	f := NewFabric(3)
	f.SetDelay(time.Millisecond, time.Millisecond)
	f.SetDuplication(1.0)
	got := 0
	a := f.Join("a", func(NodeID, []byte) { got++ })
	a.Send("a", []byte("x"))
	if !f.Step() {
		t.Fatal("no step")
	}
	f.SetDuplication(0)
	if !f.Step() {
		t.Fatal("duplicate was not re-enqueued")
	}
	if got != 2 {
		t.Fatalf("delivered %d, want 2", got)
	}
	if f.Now() != 2*time.Millisecond {
		t.Fatalf("duplicate kept the old deadline: clock %v, want 2ms", f.Now())
	}
}

// TestStatsTotalsAreLinkSums checks, on every substrate, that each total
// but Dropped is the sum of its column over Links, and that the totals
// count what was sent and delivered: a→b three times, b→a twice, one
// loopback a→a and one send to a peer nobody can reach (counted as sent
// and dropped).
func TestStatsTotalsAreLinkSums(t *testing.T) {
	for _, tc := range []struct {
		name string
		// run sends the traffic and returns every endpoint's Stats once it
		// is delivered.
		run func(t *testing.T, send func(Conn, NodeID, int)) []Stats
	}{
		{"mesh", func(t *testing.T, send func(Conn, NodeID, int)) []Stats {
			m := NewMesh()
			defer m.Close()
			var got collect
			a, b := m.Join("a", got.handler), m.Join("b", got.handler)
			send(a, "b", 3)
			send(b, "a", 2)
			send(a, "a", 1)
			send(a, "nobody", 1)
			waitFor(t, func() bool { return got.len() == 6 })
			return []Stats{m.Stats()}
		}},
		{"fabric", func(t *testing.T, send func(Conn, NodeID, int)) []Stats {
			f := NewFabric(1)
			var got collect
			a, b := f.Join("a", got.handler), f.Join("b", got.handler)
			send(a, "b", 3)
			send(b, "a", 2)
			send(a, "a", 1)
			send(a, "nobody", 1)
			f.Drain(100)
			return []Stats{f.Stats()}
		}},
		{"tcp", func(t *testing.T, send func(Conn, NodeID, int)) []Stats {
			var gotA, gotB collect
			b, err := NewTCP("b", "127.0.0.1:0", nil, gotB.handler)
			if err != nil {
				t.Fatal(err)
			}
			defer b.Close()
			a, err := NewTCP("a", "127.0.0.1:0", map[NodeID]string{"b": b.Addr()}, gotA.handler)
			if err != nil {
				t.Fatal(err)
			}
			defer a.Close()
			send(a, "b", 3)
			waitFor(t, func() bool { return gotB.len() == 3 }) // b has learned a's address
			send(b, "a", 2)
			send(a, "a", 1)
			send(a, "nobody", 1)
			waitFor(t, func() bool { return gotA.len() == 3 })
			return []Stats{a.Stats(), b.Stats()}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var sends, bytes uint64
			send := func(c Conn, to NodeID, times int) {
				for i := 0; i < times; i++ {
					c.Send(to, make([]byte, 10+i))
					sends++
					bytes += uint64(10 + i)
				}
			}
			var sum Stats
			for _, st := range tc.run(t, send) {
				var links Stats
				for _, l := range st.Links {
					links.Sent += l.Sent
					links.Delivered += l.Delivered
					links.Bytes += l.BytesDelivered
					links.BytesSent += l.BytesSent
				}
				links.Dropped, links.Links = st.Dropped, st.Links
				if !reflect.DeepEqual(st, links) {
					t.Errorf("totals %+v, want the link sums %+v", st, links)
				}
				sum.Sent += st.Sent
				sum.Delivered += st.Delivered
				sum.Dropped += st.Dropped
				sum.BytesSent += st.BytesSent
			}
			if sum.Sent != sends || sum.BytesSent != bytes || sum.Delivered != 6 || sum.Dropped != 1 {
				t.Errorf("sent %d (%d B), delivered %d, dropped %d; want %d (%d B), 6, 1",
					sum.Sent, sum.BytesSent, sum.Delivered, sum.Dropped, sends, bytes)
			}
		})
	}
}

// TestTCPFrameBytes pins the replica wire's framing byte for byte:
// [uvarint total][uvarint fromLen][from][payload], the hello frame first.
func TestTCPFrameBytes(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	a, err := NewTCP("node-a", "127.0.0.1:0", map[NodeID]string{"sink": ln.Addr().String()}, func(NodeID, []byte) {})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	frame := func(payload []byte) []byte {
		body := append([]byte{byte(len("node-a"))}, "node-a"...)
		body = append(body, payload...)
		return append(binary.AppendUvarint(nil, uint64(len(body))), body...)
	}
	large := make([]byte, 70_000) // larger than bufio's buffer, and a 3-byte length
	for i := range large {
		large[i] = byte(i)
	}
	payloads := [][]byte{[]byte("x"), {}, large, []byte("after")}
	want := frame(append(append([]byte{}, helloMagic...), a.Addr()...))
	for _, p := range payloads {
		want = append(want, frame(p)...)
	}
	got := make(chan []byte, 1)
	go func() {
		buf := make([]byte, len(want))
		conn, err := ln.Accept()
		if err == nil {
			defer conn.Close()
			_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
			n, _ := io.ReadFull(conn, buf)
			buf = buf[:n]
		}
		got <- buf
	}()
	for _, p := range payloads {
		a.Send("sink", p)
	}
	if stream := <-got; !bytes.Equal(stream, want) {
		t.Fatalf("stream differs from the frame layout: %d bytes, want %d", len(stream), len(want))
	}
}

// TestTCPSendAllocs pins a Send to a connected peer at zero allocations:
// the frame's header is built in the peer's bufio.Writer and the payload
// copied in after it (a copy of the frame per Send used to cost two).
func TestTCPSendAllocs(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		_, _ = io.Copy(io.Discard, conn) // reads into a pooled buffer: no allocation per frame
	}()
	addr := ln.Addr().String()
	a, err := NewTCP("a", "127.0.0.1:0", map[NodeID]string{"sink": addr}, func(NodeID, []byte) {})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	payload := make([]byte, 512)
	a.Send("sink", payload) // dial, hello
	if got := testing.AllocsPerRun(200, func() { a.Send("sink", payload) }); got != 0 {
		t.Fatalf("%.1f allocs per Send, want 0", got)
	}
	if a.Stats().Dropped != 0 {
		t.Fatalf("%d sends dropped", a.Stats().Dropped)
	}
}
