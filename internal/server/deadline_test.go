package server_test

import (
	"runtime"
	"testing"
	"time"

	"crdtsmr/internal/crdt"
	"crdtsmr/internal/server"
	"crdtsmr/internal/transport"
	"crdtsmr/internal/wire"
)

// partitionHome cuts n1, whose server the tests below talk to, off from
// the rest of the cluster: no request at n1 can reach a quorum.
func partitionHome(mesh *transport.Mesh) {
	mesh.Partition([]transport.NodeID{"n1"}, []transport.NodeID{"n2", "n3"})
}

// TestRequestTimeoutAnswersOncePerID: with the key's quorum partitioned
// away, pipelined requests are answered at RequestTimeout by the
// connection's deadline list: a read "unavailable", an update "uncertain".
// Once the partition heals, the node completes the same requests, and
// those late completions are dropped: every request ID gets exactly one
// frame.
func TestRequestTimeoutAnswersOncePerID(t *testing.T) {
	const timeout = 300 * time.Millisecond
	addrs, _, _, mesh, stop := startClusterMesh(t, 3, server.Options{RequestTimeout: timeout})
	defer stop()
	nc, br := dialRaw(t, addrs[0])
	sendRaw(t, nc, &wire.Request{Op: wire.OpQuery, ID: 1, Key: "hits"})
	if resp := readRaw(t, nc, br, 5*time.Second); resp.Status != wire.StatusOK {
		t.Fatalf("read before the partition: %+v", resp)
	}

	partitionHome(mesh)
	start := time.Now()
	sendRaw(t, nc, &wire.Request{Op: wire.OpQuery, ID: 2, Key: "hits"})
	sendRaw(t, nc, incReq(3, "hits"))
	sendRaw(t, nc, &wire.Request{Op: wire.OpQuery, ID: 4, Key: "hits"})
	want := map[uint64]byte{2: wire.StatusUnavailable, 3: wire.StatusUncertain, 4: wire.StatusUnavailable}
	seen := map[uint64]int{}
	for range want {
		resp := readRaw(t, nc, br, 5*time.Second)
		seen[resp.ID]++
		if resp.Status != want[resp.ID] {
			t.Errorf("request %d answered status %d (%s), want %d", resp.ID, resp.Status, resp.Msg, want[resp.ID])
		}
	}
	if elapsed := time.Since(start); elapsed < timeout-50*time.Millisecond || elapsed > timeout+2*time.Second {
		t.Errorf("timed-out answers took %v, want about %v", elapsed, timeout)
	}

	// Heal, and read until the update of request 3, which the node kept
	// retrying, is visible: its completion has landed by then, after its
	// answer, as have the queries' (they ran on the same replica).
	mesh.Heal()
	for id := uint64(5); ; id++ {
		sendRaw(t, nc, &wire.Request{Op: wire.OpQuery, ID: id, Key: "hits"})
		resp := readRaw(t, nc, br, 5*time.Second)
		if seen[resp.ID]++; resp.ID != id {
			t.Fatalf("got a frame for request %d while waiting for %d", resp.ID, id)
		}
		if resp.Status == wire.StatusOK && counterValue(t, resp.State) == 1 {
			break
		}
		if id > 500 {
			t.Fatal("the timed-out update never became visible after the heal")
		}
	}
	_ = nc.SetReadDeadline(time.Now().Add(300 * time.Millisecond))
	if frame, err := wire.ReadFrame(br); err == nil {
		resp, _ := wire.DecodeResponse(frame)
		t.Fatalf("a second frame for request %d", resp.ID)
	}
	for id, n := range seen {
		if n != 1 {
			t.Errorf("request %d got %d frames, want 1", id, n)
		}
	}
}

// TestCloseWithRequestsInFlight: Close does not wait for requests the
// node is still running; it closes their connection.
func TestCloseWithRequestsInFlight(t *testing.T) {
	addrs, servers, _, mesh, stop := startClusterMesh(t, 3, server.Options{RequestTimeout: time.Minute})
	defer stop()
	partitionHome(mesh)
	nc, br := dialRaw(t, addrs[0])
	sendRaw(t, nc, &wire.Request{Op: wire.OpQuery, ID: 1, Key: "hits"})
	sendRaw(t, nc, incReq(2, "hits"))
	waitInFlight(t, servers[0], 2)

	closed := make(chan struct{})
	go func() {
		_ = servers[0].Close()
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("Close waited for requests in flight")
	}
	_ = nc.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := wire.ReadFrame(br); err == nil {
		t.Fatal("the connection stayed open after Close")
	}
}

// TestNoGoroutinePerRequest: requests in flight hold no goroutine of
// their own. With the quorum partitioned away, 200 pipelined requests in
// flight cost no more goroutines than 10 do.
func TestNoGoroutinePerRequest(t *testing.T) {
	addrs, servers, _, mesh, stop := startClusterMesh(t, 3, server.Options{RequestTimeout: time.Minute})
	defer stop()
	partitionHome(mesh)
	nc, _ := dialRaw(t, addrs[0])
	send := func(from, to uint64) {
		for id := from; id <= to; id++ {
			if id%2 == 0 {
				sendRaw(t, nc, incReq(id, "hits"))
			} else {
				sendRaw(t, nc, &wire.Request{Op: wire.OpQuery, ID: id, Key: "hits"})
			}
		}
	}
	send(1, 10)
	waitInFlight(t, servers[0], 10)
	few := runtime.NumGoroutine()
	send(11, 200)
	waitInFlight(t, servers[0], 200)
	if many := runtime.NumGoroutine(); many > few+5 {
		t.Fatalf("%d goroutines with 200 requests in flight, %d with 10", many, few)
	}
}

// counterValue decodes a g-counter state off a response.
func counterValue(t *testing.T, state []byte) uint64 {
	t.Helper()
	st, err := crdt.Unmarshal(state)
	if err != nil {
		t.Fatal(err)
	}
	c, ok := st.(*crdt.GCounter)
	if !ok {
		t.Fatalf("state is %T, want a g-counter", st)
	}
	return c.Value()
}

// TestTimedOutRemoveIsNotApplied: an or-set remove answered "unavailable"
// because its observing query timed out is never applied, even when the
// query completes after the partition heals.
func TestTimedOutRemoveIsNotApplied(t *testing.T) {
	addrs, _, _, mesh, stop := startClusterMesh(t, 3, server.Options{RequestTimeout: 300 * time.Millisecond})
	defer stop()
	nc, br := dialRaw(t, addrs[0])
	sendRaw(t, nc, &wire.Request{Op: wire.OpUpdate, ID: 1, Key: "or-set/s", CRDTType: crdt.TypeORSet, Mutation: wire.MutAdd, Args: [][]byte{[]byte("x")}})
	if resp := readRaw(t, nc, br, 5*time.Second); resp.Status != wire.StatusOK {
		t.Fatalf("add: %+v", resp)
	}
	partitionHome(mesh)
	sendRaw(t, nc, &wire.Request{Op: wire.OpUpdate, ID: 2, Key: "or-set/s", CRDTType: crdt.TypeORSet, Mutation: wire.MutRemove, Args: [][]byte{[]byte("x")}})
	if resp := readRaw(t, nc, br, 5*time.Second); resp.Status != wire.StatusUnavailable {
		t.Fatalf("remove without a quorum: status %d (%s), want unavailable", resp.Status, resp.Msg)
	}
	mesh.Heal()
	// The remove's observing query completes once its retransmits get
	// through; a read after the heal is ordered after that completion on
	// the key's replica, and must still see x. A second read gives a
	// completion that lands late a second chance to show.
	for id := uint64(3); id <= 4; id++ {
		sendRaw(t, nc, &wire.Request{Op: wire.OpQuery, ID: id, Key: "or-set/s"})
		resp := readRaw(t, nc, br, 5*time.Second)
		if resp.ID != id || resp.Status != wire.StatusOK {
			t.Fatalf("read %d after the heal: %+v", id, resp)
		}
		st, err := crdt.Unmarshal(resp.State)
		if err != nil {
			t.Fatal(err)
		}
		if set := st.(*crdt.ORSet); !set.Contains("x") {
			t.Fatalf("read %d after the heal: %v, want x still present", id, set)
		}
	}
}
