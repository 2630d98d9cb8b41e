package server_test

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"crdtsmr/client"
	"crdtsmr/internal/cluster"
	"crdtsmr/internal/core"
	"crdtsmr/internal/crdt"
	"crdtsmr/internal/server"
	"crdtsmr/internal/transport"
	"crdtsmr/internal/wire"
)

// startCluster runs n replicas over an in-process mesh, each fronted by a
// network server on an ephemeral loopback port.
func startCluster(t *testing.T, n int) (addrs []string, cl *cluster.Cluster, stop func()) {
	addrs, _, cl, stop = startClusterOpts(t, n, server.Options{RequestTimeout: 5 * time.Second})
	return addrs, cl, stop
}

// startClusterOpts is startCluster with explicit server options, for the
// admission-control tests that squeeze the load limits.
func startClusterOpts(t *testing.T, n int, opts server.Options) (addrs []string, servers []*server.Server, cl *cluster.Cluster, stop func()) {
	t.Helper()
	addrs, servers, cl, _, stop = startClusterMesh(t, n, opts)
	return addrs, servers, cl, stop
}

// startClusterMesh is startClusterOpts that also hands out the mesh, for
// tests that hold or cut links between replicas.
func startClusterMesh(t *testing.T, n int, opts server.Options) (addrs []string, servers []*server.Server, cl *cluster.Cluster, mesh *transport.Mesh, stop func()) {
	t.Helper()
	mesh = transport.NewMesh(transport.WithSeed(1))
	ids := make([]transport.NodeID, n)
	for i := range ids {
		ids[i] = transport.NodeID(fmt.Sprintf("n%d", i+1))
	}
	cl, err := cluster.New(mesh, cluster.Config{
		Members:            ids,
		Initial:            crdt.NewGCounter(),
		InitialForKey:      server.TypedKeyInitial(crdt.TypeGCounter),
		Options:            core.DefaultOptions(),
		RetransmitInterval: 20 * time.Millisecond,
	})
	if err != nil {
		mesh.Close()
		t.Fatal(err)
	}
	for _, id := range ids {
		srv, err := server.Start(cl.Node(id), "127.0.0.1:0", opts)
		if err != nil {
			t.Fatal(err)
		}
		servers = append(servers, srv)
		addrs = append(addrs, srv.Addr())
	}
	return addrs, servers, cl, mesh, func() {
		for _, srv := range servers {
			_ = srv.Close()
		}
		cl.Close()
		mesh.Close()
	}
}

func newClient(t *testing.T, addrs ...string) *client.Client {
	t.Helper()
	c, err := client.New(addrs, client.WithRequestTimeout(5*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = c.Close() })
	return c
}

// TestServeTypedHandles drives every typed handle through the network
// path: counters, PN-counters, OR-sets, and LWW-registers, across
// different servers of the same cluster.
func TestServeTypedHandles(t *testing.T) {
	addrs, _, stop := startCluster(t, 3)
	defer stop()
	ctx := context.Background()

	c1 := newClient(t, addrs[0])
	c2 := newClient(t, addrs[1])

	ctr := c1.Counter("views")
	if err := ctr.Inc(ctx, 3); err != nil {
		t.Fatal(err)
	}
	if err := c2.Counter("views").Inc(ctx, 4); err != nil {
		t.Fatal(err)
	}
	if v, err := c2.Counter("views").Value(ctx); err != nil || v != 7 {
		t.Fatalf("counter = %d, %v; want 7", v, err)
	}

	pn := c1.PNCounter("pn-counter/stock")
	if err := pn.Inc(ctx, 10); err != nil {
		t.Fatal(err)
	}
	if err := pn.Dec(ctx, 4); err != nil {
		t.Fatal(err)
	}
	if v, err := c2.PNCounter("pn-counter/stock").Value(ctx); err != nil || v != 6 {
		t.Fatalf("pn-counter = %d, %v; want 6", v, err)
	}

	set := c1.Set("or-set/sessions")
	if err := set.Add(ctx, "alice"); err != nil {
		t.Fatal(err)
	}
	if err := set.Add(ctx, "bob"); err != nil {
		t.Fatal(err)
	}
	if err := c2.Set("or-set/sessions").Remove(ctx, "alice"); err != nil {
		t.Fatal(err)
	}
	elems, err := c2.Set("or-set/sessions").Elements(ctx)
	if err != nil || len(elems) != 1 || elems[0] != "bob" {
		t.Fatalf("set = %v, %v; want [bob]", elems, err)
	}

	reg := c1.Register("lww-register/config")
	if _, ok, err := reg.Load(ctx); err != nil || ok {
		t.Fatalf("unwritten register: ok=%v err=%v", ok, err)
	}
	if err := reg.Store(ctx, "v2"); err != nil {
		t.Fatal(err)
	}
	if v, ok, err := c2.Register("lww-register/config").Load(ctx); err != nil || !ok || v != "v2" {
		t.Fatalf("register = %q ok=%v err=%v; want v2", v, ok, err)
	}

	if err := c1.Ping(ctx); err != nil {
		t.Fatal(err)
	}
	keys, err := c1.Keys(ctx)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]bool{"views": true, "pn-counter/stock": true, "or-set/sessions": true, "lww-register/config": true}
	found := 0
	for _, k := range keys {
		if want[k] {
			found++
		}
	}
	if found != len(want) {
		t.Fatalf("keys %v missing some of %v", keys, want)
	}
}

// TestServePipelining issues many concurrent requests through a single
// pooled connection and checks they all complete and sum correctly.
func TestServePipelining(t *testing.T) {
	addrs, _, stop := startCluster(t, 3)
	defer stop()
	c, err := client.New(addrs[:1], client.WithPool(1), client.WithRequestTimeout(10*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const workers = 32
	ctx := context.Background()
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := c.Counter("hits").Inc(ctx, 1); err != nil {
				errs <- err
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if v, err := c.Counter("hits").Value(ctx); err != nil || v != workers {
		t.Fatalf("counter = %d, %v; want %d", v, err, workers)
	}
}

// TestServeRejects covers the terminal error paths: unknown mutations and
// type mismatches must come back as errors, not retries or hangs.
func TestServeRejects(t *testing.T) {
	addrs, _, stop := startCluster(t, 3)
	defer stop()
	c := newClient(t, addrs...)
	ctx := context.Background()

	// Unknown admin command.
	if _, err := c.Keys(ctx); err != nil {
		t.Fatal(err)
	}

	// Type mismatch: the default key holds a G-Counter; set ops on it
	// must fail terminally.
	if err := c.Set("plain-key").Add(ctx, "x"); err == nil {
		t.Fatal("set mutation on a counter key succeeded")
	}

	// Reading a counter key through a register handle fails client-side.
	if err := c.Counter("ctr").Inc(ctx, 1); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.Register("ctr").Load(ctx); err == nil {
		t.Fatal("register load of a counter key succeeded")
	}
}

// TestServeClosesOnGarbage sends an undecodable frame and expects the
// server to drop the connection rather than answer or crash.
func TestServeClosesOnGarbage(t *testing.T) {
	addrs, _, stop := startCluster(t, 1)
	defer stop()
	nc, err := net.Dial("tcp", addrs[0])
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	if err := wire.WriteFrame(nc, []byte{0xff, 0xfe, 0xfd}); err != nil {
		t.Fatal(err)
	}
	_ = nc.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := wire.ReadFrame(bufio.NewReader(nc)); err == nil {
		t.Fatal("server answered a garbage frame")
	}
}

// dialRaw opens a raw protocol connection for tests that speak frames by
// hand.
func dialRaw(t *testing.T, addr string) (net.Conn, *bufio.Reader) {
	t.Helper()
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = nc.Close() })
	return nc, bufio.NewReader(nc)
}

func sendRaw(t *testing.T, nc net.Conn, req *wire.Request) {
	t.Helper()
	if err := wire.WriteFrame(nc, req.Encode()); err != nil {
		t.Fatal(err)
	}
}

func readRaw(t *testing.T, nc net.Conn, br *bufio.Reader, timeout time.Duration) *wire.Response {
	t.Helper()
	_ = nc.SetReadDeadline(time.Now().Add(timeout))
	frame, err := wire.ReadFrame(br)
	if err != nil {
		t.Fatalf("read frame: %v", err)
	}
	resp, err := wire.DecodeResponse(frame)
	if err != nil {
		t.Fatalf("decode response: %v", err)
	}
	return resp
}

func incReq(id uint64, key string) *wire.Request {
	return &wire.Request{
		Op: wire.OpUpdate, ID: id, Key: key,
		CRDTType: crdt.TypeGCounter, Mutation: wire.MutInc,
		Args: [][]byte{binary.AppendUvarint(nil, 1)},
	}
}

// TestServeConnLimitBusyHandshake fills the connection cap and checks a
// further connection gets exactly the busy-close handshake — one
// StatusBusy response on request ID 0, then EOF — while the admitted
// connection keeps working, and that the client library surfaces the
// refusal as the retryable ErrBusy rather than an uncertain fate.
func TestServeConnLimitBusyHandshake(t *testing.T) {
	addrs, servers, _, stop := startClusterOpts(t, 1, server.Options{
		RequestTimeout: 5 * time.Second,
		MaxConns:       1,
	})
	defer stop()

	nc1, br1 := dialRaw(t, addrs[0])
	// A roundtrip proves the first connection is registered (accepted and
	// admitted) before the second dial races it for the one slot.
	sendRaw(t, nc1, &wire.Request{Op: wire.OpAdmin, ID: 1, Cmd: "ping"})
	if resp := readRaw(t, nc1, br1, 5*time.Second); resp.Status != wire.StatusOK {
		t.Fatalf("ping on admitted conn: %+v", resp)
	}

	nc2, br2 := dialRaw(t, addrs[0])
	resp := readRaw(t, nc2, br2, 5*time.Second)
	if resp.ID != 0 || resp.Status != wire.StatusBusy || resp.Op != wire.OpAdmin|wire.RespBit {
		t.Fatalf("refused conn got %+v, want OpAdmin ID 0 StatusBusy", resp)
	}
	_ = nc2.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := wire.ReadFrame(br2); err == nil {
		t.Fatal("refused connection stayed open after the busy handshake")
	}
	if got := servers[0].ShedConns(); got == 0 {
		t.Fatal("ShedConns did not count the refused connection")
	}

	// The admitted connection is unaffected.
	sendRaw(t, nc1, &wire.Request{Op: wire.OpAdmin, ID: 2, Cmd: "ping"})
	if resp := readRaw(t, nc1, br1, 5*time.Second); resp.ID != 2 || resp.Status != wire.StatusOK {
		t.Fatalf("admitted conn broken after a refusal: %+v", resp)
	}

	// The client library sees the handshake as ErrBusy: retryable-safe
	// (the server read nothing), not uncertain.
	c, err := client.New(addrs, client.WithRetryPolicy(client.RetryPolicy{
		MaxAttempts: 2, Backoff: time.Millisecond, MaxBackoff: 2 * time.Millisecond,
	}), client.WithRequestTimeout(2*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	err = c.Counter("k").Inc(context.Background(), 1)
	if !errors.Is(err, client.ErrBusy) {
		t.Fatalf("err = %v, want ErrBusy", err)
	}
	if errors.Is(err, client.ErrUncertain) {
		t.Fatalf("refused-at-admission error %v must not read as uncertain", err)
	}
}

// TestServeInFlightLimits pins down the two-tier in-flight semantics with
// a stalled cluster (majority crashed, so updates park until recovery):
// one connection's pipelined frames beyond its own MaxInFlight queue —
// that client's private backpressure — while load beyond the server-wide
// MaxTotalInFlight is shed immediately with StatusBusy. After recovery
// every queued request completes.
func TestServeInFlightLimits(t *testing.T) {
	addrs, servers, cl, stop := startClusterOpts(t, 3, server.Options{
		RequestTimeout:   30 * time.Second,
		MaxInFlight:      2,
		MaxTotalInFlight: 3,
	})
	defer stop()
	cl.Crash("n2")
	cl.Crash("n3")

	// Connection A pipelines 4 updates: 2 execute (and hang on the lost
	// quorum), 2 queue behind A's per-conn semaphore.
	ncA, brA := dialRaw(t, addrs[0])
	for id := uint64(1); id <= 4; id++ {
		sendRaw(t, ncA, incReq(id, "hits"))
	}
	time.Sleep(200 * time.Millisecond) // let A's first two enter execution

	// Connection B: its first update takes the last server-wide slot; the
	// second must be shed with StatusBusy echoing its request ID.
	ncB, brB := dialRaw(t, addrs[0])
	sendRaw(t, ncB, incReq(10, "hits"))
	time.Sleep(100 * time.Millisecond)
	sendRaw(t, ncB, incReq(11, "hits"))
	resp := readRaw(t, ncB, brB, 5*time.Second)
	if resp.ID != 11 || resp.Status != wire.StatusBusy {
		t.Fatalf("over-cap request got %+v, want ID 11 StatusBusy", resp)
	}
	if got := servers[0].ShedRequests(); got != 1 {
		t.Fatalf("ShedRequests = %d, want 1", got)
	}

	// Recovery lets every admitted request — executing and per-conn
	// queued alike — run to completion.
	cl.Recover("n2")
	cl.Recover("n3")
	seen := map[uint64]bool{}
	for i := 0; i < 4; i++ {
		resp := readRaw(t, ncA, brA, 20*time.Second)
		if resp.Status != wire.StatusOK {
			t.Fatalf("queued update %d failed after recovery: %+v", resp.ID, resp)
		}
		seen[resp.ID] = true
	}
	for id := uint64(1); id <= 4; id++ {
		if !seen[id] {
			t.Fatalf("no response for pipelined request %d (responses: %v)", id, seen)
		}
	}
	if resp := readRaw(t, ncB, brB, 20*time.Second); resp.ID != 10 || resp.Status != wire.StatusOK {
		t.Fatalf("B's admitted update got %+v, want ID 10 OK", resp)
	}
}

// TestServeUnavailable checks the NACK path: a crashed replica's server
// answers StatusUnavailable, and a single-address client surfaces it.
func TestServeUnavailable(t *testing.T) {
	addrs, cl, stop := startCluster(t, 3)
	defer stop()
	cl.Crash("n1")

	c, err := client.New(addrs[:1],
		client.WithRetryPolicy(client.RetryPolicy{MaxAttempts: 2, Backoff: time.Millisecond}),
		client.WithRequestTimeout(2*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	err = c.Counter("k").Inc(context.Background(), 1)
	if err == nil {
		t.Fatal("update on a crashed replica succeeded")
	}
	if !errors.Is(err, client.ErrUnavailable) {
		t.Fatalf("error %v does not match client.ErrUnavailable", err)
	}
	var se *client.StatusError
	if !errors.As(err, &se) || se.Status != client.StatusUnavailable {
		t.Fatalf("error %v carries no StatusError with StatusUnavailable", err)
	}
}

// TestRemoveObservesAcknowledgedAdd: a remove served by a replica whose
// acceptor has not merged an acknowledged add yet must still remove it. The
// n1→n2 link is held, so the add acknowledged through n1 (quorum n1+n3)
// never reaches n2's payload; the remove and the read both go through n2.
func TestRemoveObservesAcknowledgedAdd(t *testing.T) {
	addrs, _, _, mesh, stop := startClusterMesh(t, 3, server.Options{RequestTimeout: 5 * time.Second})
	defer stop()
	ctx := context.Background()
	via1 := newClient(t, addrs[0]).Set("or-set/sessions")
	via2 := newClient(t, addrs[1]).Set("or-set/sessions")

	mesh.Block("n1", "n2")
	for _, name := range []string{"alice", "bob"} {
		if err := via1.Add(ctx, name); err != nil {
			t.Fatal(err)
		}
	}
	if err := via2.Remove(ctx, "alice"); err != nil {
		t.Fatal(err)
	}
	elems, err := via2.Elements(ctx)
	if err != nil || len(elems) != 1 || elems[0] != "bob" {
		t.Fatalf("set = %v, %v; want [bob]", elems, err)
	}
	mesh.Unblock("n1", "n2")
	if elems, err := via1.Elements(ctx); err != nil || len(elems) != 1 || elems[0] != "bob" {
		t.Fatalf("after the link healed, set = %v, %v; want [bob]", elems, err)
	}
}
