package client_test

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"crdtsmr/client"
	"crdtsmr/internal/checker"
	"crdtsmr/internal/cluster"
	"crdtsmr/internal/core"
	"crdtsmr/internal/crdt"
	"crdtsmr/internal/server"
	"crdtsmr/internal/transport"
)

// servedCluster is a replica group over an in-process mesh, each node
// fronted by a network server — the deployment every test in this
// package drives, with knobs for the ones that inject faults.
type servedCluster struct {
	mesh  *transport.Mesh
	cl    *cluster.Cluster
	ids   []transport.NodeID
	addrs map[transport.NodeID]string // client-facing server addresses
}

func startServedCluster(t *testing.T, n int, seed int64, requestTimeout time.Duration) *servedCluster {
	return startServedClusterWith(t, n, seed, requestTimeout, nil)
}

// padSlots sizes checker.PaddedCounter(padSlots), which padKeys makes
// every key's initial payload: above the replica wire's size switch, so
// the chaos tests run the digest and delta frames. Reads of padded keys
// subtract its value, padSlots (padded).
const padSlots = 128

func padKeys(cfg *cluster.Config) {
	initial := checker.PaddedCounter(padSlots)
	cfg.InitialForKey = func(string) crdt.State { return initial }
}

// padded reads a padded key's counter net of the padding.
func padded(ctx context.Context, ctr *client.Counter) (uint64, error) {
	v, err := ctr.Value(ctx)
	return v - padSlots, err
}

// startServedClusterWith is the fully general form: customize edits the
// cluster config before the nodes start (padded keys, a DataDir for the
// crash/restart tests, ...).
func startServedClusterWith(t *testing.T, n int, seed int64, requestTimeout time.Duration, customize func(*cluster.Config)) *servedCluster {
	t.Helper()
	mesh := transport.NewMesh(transport.WithSeed(seed))
	ids := make([]transport.NodeID, n)
	for i := range ids {
		ids[i] = transport.NodeID(fmt.Sprintf("n%d", i+1))
	}
	cfg := cluster.Config{
		Members:            ids,
		Initial:            crdt.NewGCounter(),
		InitialForKey:      server.TypedKeyInitial(crdt.TypeGCounter),
		Options:            core.DefaultOptions(),
		RetransmitInterval: 20 * time.Millisecond,
	}
	if customize != nil {
		customize(&cfg)
	}
	cl, err := cluster.New(mesh, cfg)
	if err != nil {
		mesh.Close()
		t.Fatal(err)
	}
	sc := &servedCluster{mesh: mesh, cl: cl, ids: ids, addrs: make(map[transport.NodeID]string, n)}
	var servers []*server.Server
	for _, id := range ids {
		srv, err := server.Start(cl.Node(id), "127.0.0.1:0", server.Options{RequestTimeout: requestTimeout})
		if err != nil {
			t.Fatal(err)
		}
		servers = append(servers, srv)
		sc.addrs[id] = srv.Addr()
	}
	t.Cleanup(func() {
		for _, srv := range servers {
			_ = srv.Close()
		}
		cl.Close()
		mesh.Close()
	})
	return sc
}

func (c *servedCluster) addrsOf(ids ...transport.NodeID) []string {
	out := make([]string, 0, len(ids))
	for _, id := range ids {
		out = append(out, c.addrs[id])
	}
	return out
}

// startCluster runs n replicas with default fault knobs and returns the
// server addresses in member order plus the cluster for crash injection.
func startCluster(t *testing.T, n int) (addrs []string, cl *cluster.Cluster) {
	t.Helper()
	sc := startServedCluster(t, n, 1, 5*time.Second)
	return sc.addrsOf(sc.ids...), sc.cl
}

// TestRetryOnDownNode is the failover contract of the client library: with
// one server's replica down (SetCrashed through the cluster), updates and
// reads submitted to a client that lists every server must still succeed —
// the down replica answers StatusUnavailable (provably not applied) and the
// client retries the operation on the next address.
func TestRetryOnDownNode(t *testing.T) {
	addrs, cl := startCluster(t, 3)
	ctx := context.Background()

	c, err := client.New(addrs,
		client.WithRetryPolicy(client.RetryPolicy{MaxAttempts: 6, Backoff: time.Millisecond}),
		client.WithRequestTimeout(10*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// Touch every address once so the pool has live connections to the
	// node that is about to go down.
	for range addrs {
		if err := c.Ping(ctx); err != nil {
			t.Fatal(err)
		}
	}

	cl.Crash("n1") // SetCrashed(true) under the hood; its server stays up

	// A 2/3 quorum remains: every operation must complete despite ~1/3 of
	// attempts landing on the crashed replica first.
	ctr := c.Counter("failover")
	const ops = 30
	for i := 0; i < ops; i++ {
		if err := ctr.Inc(ctx, 1); err != nil {
			t.Fatalf("inc %d with one node down: %v", i, err)
		}
		if _, err := ctr.Value(ctx); err != nil {
			t.Fatalf("read %d with one node down: %v", i, err)
		}
	}
	if v, err := ctr.Value(ctx); err != nil || v != ops {
		t.Fatalf("counter = %d, %v; want %d", v, err, ops)
	}

	// After recovery the previously down replica serves again.
	cl.Recover("n1")
	c1, err := client.New(addrs[:1], client.WithRequestTimeout(5*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	defer c1.Close()
	if v, err := c1.Counter("failover").Value(ctx); err != nil || v != ops {
		t.Fatalf("recovered replica reads %d, %v; want %d", v, err, ops)
	}
}

// TestRetryDialFailure lists a dead address first: operations must fail
// over to the live servers (dialing sent nothing, so even updates retry).
func TestRetryDialFailure(t *testing.T) {
	addrs, _ := startCluster(t, 3)

	// Reserve-and-release a port so the first address refuses connections.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	dead := ln.Addr().String()
	_ = ln.Close()

	c, err := client.New(append([]string{dead}, addrs...),
		client.WithRetryPolicy(client.RetryPolicy{MaxAttempts: 8, Backoff: time.Millisecond}),
		client.WithDialTimeout(500*time.Millisecond),
		client.WithRequestTimeout(10*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	ctx := context.Background()
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := c.Counter("k").Inc(ctx, 1); err != nil {
				errs <- err
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if v, err := c.Counter("k").Value(ctx); err != nil || v != 8 {
		t.Fatalf("counter = %d, %v; want 8", v, err)
	}
}

// TestPerRequestTimeout checks that a context deadline fails an operation
// promptly — with an error matching both ErrTimeout and
// context.DeadlineExceeded — instead of hanging on an unresponsive
// address.
func TestPerRequestTimeout(t *testing.T) {
	// A listener that accepts and never answers.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			defer conn.Close()
		}
	}()

	c, err := client.New([]string{ln.Addr().String()})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	start := time.Now()
	err = c.Ping(ctx)
	if err == nil {
		t.Fatal("ping of a black-hole server succeeded")
	}
	if !errors.Is(err, client.ErrTimeout) || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("timeout error %v matches neither ErrTimeout nor DeadlineExceeded", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("timeout took %v", elapsed)
	}
}

// TestWithDialerRoutesConnections checks that a custom Dialer sees every
// dial and can rewrite the target — the seam for proxies and in-process
// transports.
func TestWithDialerRoutesConnections(t *testing.T) {
	addrs, _ := startCluster(t, 1)

	var dials atomic.Int32
	d := dialerFunc(func(ctx context.Context, network, address string) (net.Conn, error) {
		dials.Add(1)
		// The client was configured with a placeholder address; the dialer
		// routes it to the real server.
		if address != "placeholder:1" {
			return nil, fmt.Errorf("unexpected dial target %q", address)
		}
		var nd net.Dialer
		return nd.DialContext(ctx, network, addrs[0])
	})

	c, err := client.New([]string{"placeholder:1"}, client.WithDialer(d))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Ping(context.Background()); err != nil {
		t.Fatal(err)
	}
	if dials.Load() == 0 {
		t.Fatal("custom dialer was never used")
	}
}

type dialerFunc func(ctx context.Context, network, address string) (net.Conn, error)

func (f dialerFunc) DialContext(ctx context.Context, network, address string) (net.Conn, error) {
	return f(ctx, network, address)
}

// TestClusterDownIsUnavailable: when every dial is refused (the whole
// cluster is down), nothing was ever sent — the exhausted-budget error
// must carry the ErrUnavailable class so callers can classify the most
// common outage mode with the same errors.Is they use everywhere else.
func TestClusterDownIsUnavailable(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	dead := ln.Addr().String()
	_ = ln.Close()

	c, err := client.New([]string{dead},
		client.WithRetryPolicy(client.RetryPolicy{MaxAttempts: 2, Backoff: time.Millisecond}),
		client.WithDialTimeout(500*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	err = c.Counter("k").Inc(context.Background(), 1)
	if !errors.Is(err, client.ErrUnavailable) {
		t.Fatalf("cluster-down update: %v, want ErrUnavailable", err)
	}
	if errors.Is(err, client.ErrUncertain) {
		t.Fatalf("cluster-down update %v claims ErrUncertain though nothing was sent", err)
	}
}

// TestClosedClient checks operations after Close fail fast with ErrClosed.
func TestClosedClient(t *testing.T) {
	addrs, _ := startCluster(t, 1)
	c, err := client.New(addrs)
	if err != nil {
		t.Fatal(err)
	}
	_ = c.Close()
	if err := c.Ping(context.Background()); !errors.Is(err, client.ErrClosed) {
		t.Fatalf("ping on a closed client: %v, want ErrClosed", err)
	}
}

// TestEmptyAddrs checks the constructor rejects an empty address list.
func TestEmptyAddrs(t *testing.T) {
	if _, err := client.New(nil); err == nil {
		t.Fatal("New(nil) succeeded")
	}
}
