package server_test

import (
	"context"
	"fmt"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"crdtsmr/internal/cluster"
	"crdtsmr/internal/core"
	"crdtsmr/internal/crdt"
	"crdtsmr/internal/server"
	"crdtsmr/internal/transport"
	"crdtsmr/internal/wire"
)

// countingListener hands out connections that add every byte they write
// to written: what the servers behind it send their clients.
type countingListener struct {
	net.Listener
	written *atomic.Int64
}

func (l countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return countingConn{Conn: c, written: l.written}, nil
}

type countingConn struct {
	net.Conn
	written *atomic.Int64
}

// Write counts p before writing it, so the count is in place before the
// client can read a byte of it.
func (c countingConn) Write(p []byte) (int, error) {
	c.written.Add(int64(len(p)))
	n, err := c.Conn.Write(p)
	c.written.Add(int64(n - len(p)))
	return n, err
}

// TestUnchangedReadsWriteNoState counts the client-wire bytes of large
// reads: a 1,000-element or-set read 50 times, added to once, then read
// 50 times more. Only the first read of each state ships it; every other
// read is answered "unchanged" in a frame of a few dozen bytes, and every
// read returns the state a direct QueryKey learns.
func TestUnchangedReadsWriteNoState(t *testing.T) {
	mesh := transport.NewMesh(transport.WithSeed(1))
	defer mesh.Close()
	ids := []transport.NodeID{"n1", "n2", "n3"}
	cl, err := cluster.New(mesh, cluster.Config{
		Members:            ids,
		Initial:            crdt.NewGCounter(),
		InitialForKey:      server.TypedKeyInitial(crdt.TypeGCounter),
		Options:            core.DefaultOptions(),
		RetransmitInterval: 20 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	var written atomic.Int64
	var addrs []string
	for _, id := range ids {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		srv := server.New(cl.Node(id), server.Options{RequestTimeout: 5 * time.Second})
		go func() { _ = srv.Serve(countingListener{Listener: ln, written: &written}) }()
		defer srv.Close()
		addrs = append(addrs, ln.Addr().String())
	}
	c := newClient(t, addrs...)
	ctx := context.Background()
	const key = "or-set/unchanged"
	set := c.Set(key)
	for i := 0; i < 1000; i++ {
		if err := set.Add(ctx, fmt.Sprintf("elem-%06d", i)); err != nil {
			t.Fatal(err)
		}
	}

	full := 0
	read := func(phase string, n int) {
		t.Helper()
		st, _, err := cl.Node("n1").QueryKey(ctx, key)
		if err != nil {
			t.Fatal(err)
		}
		want, err := crdt.DigestOf(st)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			before := written.Load()
			st, info, err := c.Query(ctx, key)
			if err != nil {
				t.Fatalf("%s read %d: %v", phase, i, err)
			}
			bytes := written.Load() - before
			if got, err := crdt.DigestOf(st); err != nil || got != want {
				t.Fatalf("%s read %d: returned state differs from a direct QueryKey's (%v)", phase, i, err)
			}
			if i < 2 {
				t.Logf("%s read %d: %d bytes", phase, i, bytes)
			}
			switch {
			case i == 0:
				if bytes < wire.LargeState || info.Unchanged {
					t.Fatalf("%s read 0: %d bytes, unchanged %v; want the full state", phase, bytes, info.Unchanged)
				}
				full++
			case bytes > 128 || !info.Unchanged:
				t.Fatalf("%s read %d: %d bytes, unchanged %v; want an unchanged reply of ≤ 128 B", phase, i, bytes, info.Unchanged)
			}
		}
	}
	read("before the add", 50)
	if err := set.Add(ctx, "elem-new"); err != nil {
		t.Fatal(err)
	}
	read("after the add", 50)
	if full != 2 {
		t.Fatalf("%d reads shipped a full state, want 2", full)
	}
}
