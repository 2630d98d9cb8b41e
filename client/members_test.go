package client

// White-box tests for the dynamic endpoint set: the pool-reconciliation
// paths that black-box tests cannot reach deterministically, in
// particular an operation holding a pool snapshot from before a
// concurrent SetAddrs removed one of its endpoints.

import (
	"bufio"
	"context"
	"errors"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"crdtsmr/internal/crdt"
	"crdtsmr/internal/wire"
)

// fakeServer answers every decodable request with StatusOK: admin
// requests with "pong", queries with an empty G-Counter. It counts the
// requests it read, and with hangUp set it closes each connection right
// after reading a request instead of answering.
type fakeServer struct {
	ln     net.Listener
	addr   string
	served atomic.Int32
	hangUp atomic.Bool
}

func startFakeServer(t *testing.T) *fakeServer {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	state, err := crdt.Marshal(crdt.NewGCounter())
	if err != nil {
		t.Fatal(err)
	}
	s := &fakeServer{ln: ln, addr: ln.Addr().String()}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer conn.Close()
				br := bufio.NewReader(conn)
				for {
					frame, err := wire.ReadFrame(br)
					if err != nil {
						return
					}
					req, err := wire.DecodeRequest(frame)
					if err != nil {
						return
					}
					s.served.Add(1)
					if s.hangUp.Load() {
						return
					}
					resp := &wire.Response{
						Op:      req.Op | wire.RespBit,
						ID:      req.ID,
						Status:  wire.StatusOK,
						Payload: []byte("pong"),
					}
					if req.Op == wire.OpQuery {
						resp.State = state
					}
					out, err := resp.AppendFrame(nil)
					if err != nil {
						return
					}
					if _, err := conn.Write(out); err != nil {
						return
					}
				}
			}()
		}
	}()
	t.Cleanup(func() {
		_ = ln.Close()
		wg.Wait()
	})
	return s
}

// startPongServer starts a fakeServer and returns its listen address.
func startPongServer(t *testing.T) string {
	t.Helper()
	return startFakeServer(t).addr
}

// TestRemovedEndpointPoolRetriesElsewhere: an operation that lands on a
// pool closed by endpoint removal (not by Client.Close) must fail over
// to a surviving endpoint instead of returning ErrClosed — the pool's
// closure only proves this endpoint left the member list.
func TestRemovedEndpointPoolRetriesElsewhere(t *testing.T) {
	dead := startPongServer(t)
	live := startPongServer(t)
	c, err := New([]string{dead, live}, WithRequestTimeout(5*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()
	if err := c.Ping(ctx); err != nil {
		t.Fatalf("ping before removal: %v", err)
	}

	// Simulate the race SetAddrs cannot lose deterministically from the
	// outside: the operation's pool snapshot still contains the removed
	// endpoint's pool, already closed.
	c.mu.Lock()
	removed := c.pools[0]
	c.mu.Unlock()
	removed.close()

	// Ping rotates over the addresses, so some of these land on the closed
	// pool first.
	for i := 0; i < 6; i++ {
		if err := c.Ping(ctx); err != nil {
			t.Fatalf("ping %d with a removed-endpoint pool in the set: %v", i, err)
		}
	}

	// After Close, the same ErrClosed from a pool is terminal again.
	_ = c.Close()
	if err := c.Ping(ctx); !errors.Is(err, ErrClosed) {
		t.Fatalf("ping after Close = %v, want ErrClosed", err)
	}
}

// TestDialExhaustionUnavailable: a client whose whole endpoint list is
// stale (every address refuses connections) must classify the exhausted
// operation ErrUnavailable — nothing was ever sent — never ErrUncertain.
func TestDialExhaustionUnavailable(t *testing.T) {
	var addrs []string
	for i := 0; i < 2; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addrs = append(addrs, ln.Addr().String())
		_ = ln.Close() // address now refuses connections
	}
	c, err := New(addrs,
		WithRequestTimeout(5*time.Second),
		WithDialTimeout(200*time.Millisecond),
		WithRetryPolicy(RetryPolicy{MaxAttempts: 3, Backoff: time.Millisecond, MaxBackoff: 2 * time.Millisecond}))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// An update is the strict case: ErrUncertain would forbid blind
	// retry, and a stale endpoint list must not cause that.
	err = c.Counter("k").Inc(context.Background(), 1)
	if !errors.Is(err, ErrUnavailable) {
		t.Fatalf("update over dead endpoints = %v, want ErrUnavailable", err)
	}
	if errors.Is(err, ErrUncertain) {
		t.Fatalf("update over dead endpoints also matches ErrUncertain: %v", err)
	}
}

// TestSetAddrsReconciliation: retained addresses keep their pools (and
// connections), removed ones close, duplicates collapse.
func TestSetAddrsReconciliation(t *testing.T) {
	a := startPongServer(t)
	b := startPongServer(t)
	c, err := New([]string{a, b}, WithRequestTimeout(5*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()
	for i := 0; i < 4; i++ { // touch both pools so both hold live conns
		if err := c.Ping(ctx); err != nil {
			t.Fatal(err)
		}
	}

	c.mu.Lock()
	keptPool, removedPool := c.pools[1], c.pools[0]
	c.mu.Unlock()

	if err := c.SetAddrs([]string{b, b}); err != nil {
		t.Fatal(err)
	}
	if got := c.Addrs(); len(got) != 1 || got[0] != b {
		t.Fatalf("Addrs after SetAddrs = %v, want [%s]", got, b)
	}
	c.mu.Lock()
	samePool := c.pools[0] == keptPool
	c.mu.Unlock()
	if !samePool {
		t.Fatal("retained address did not keep its pool")
	}
	removedPool.mu.Lock()
	if !removedPool.closed {
		removedPool.mu.Unlock()
		t.Fatal("removed address's pool was not closed")
	}
	for _, cn := range removedPool.conns {
		if cn != nil && !cn.isDead() {
			removedPool.mu.Unlock()
			t.Fatal("removed pool leaked a live connection")
		}
	}
	removedPool.mu.Unlock()

	if err := c.Ping(ctx); err != nil {
		t.Fatalf("ping after reconciliation: %v", err)
	}
	if err := c.SetAddrs(nil); err == nil {
		t.Fatal("SetAddrs(nil) succeeded; an empty endpoint set must be refused")
	}
}
