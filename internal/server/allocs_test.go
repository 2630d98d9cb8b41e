package server_test

import (
	"context"
	"testing"
	"time"

	"crdtsmr/client"
	"crdtsmr/internal/cluster"
	"crdtsmr/internal/core"
	"crdtsmr/internal/crdt"
	"crdtsmr/internal/server"
	"crdtsmr/internal/transport"
)

// TestServedOpAllocs counts the allocations one served g-counter read and
// one served increment cost across the whole path: the client, the
// server, and three replicas talking over real TCP. The bounds are the
// regression gate for the per-request costs the serving layer does not
// pay: no goroutine or context per request, and counter states decoded
// without a map or fresh slot-name strings.
func TestServedOpAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("network test")
	}
	const bound = 62
	ids := []transport.NodeID{"n1", "n2", "n3"}
	meshAddrs := reservePorts(t, len(ids))
	book := make(map[transport.NodeID]string, len(ids))
	for i, id := range ids {
		book[id] = meshAddrs[i]
	}
	cfg := cluster.Config{
		Members:            ids,
		Initial:            crdt.NewGCounter(),
		InitialForKey:      server.TypedKeyInitial(crdt.TypeGCounter),
		Options:            core.DefaultOptions(),
		RetransmitInterval: 20 * time.Millisecond,
	}
	var addrs []string
	for _, id := range ids {
		node, err := cluster.NewNode(id, cfg, func(nid transport.NodeID, h transport.Handler) transport.Conn {
			peers := make(map[transport.NodeID]string)
			for p, a := range book {
				if p != nid {
					peers[p] = a
				}
			}
			tcp, err := transport.NewTCP(nid, book[nid], peers, h)
			if err != nil {
				t.Fatalf("tcp %s: %v", nid, err)
			}
			return tcp
		})
		if err != nil {
			t.Fatal(err)
		}
		srv, err := server.Start(node, "127.0.0.1:0", server.Options{})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = srv.Close(); _ = node.Close() })
		addrs = append(addrs, srv.Addr())
	}
	c, err := client.New(addrs)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = c.Close() })

	// Converge the key first: every replica holds every slot, the home
	// holds its round lease, and every connection is dialed.
	ctx := context.Background()
	ctr := c.Counter("hits")
	for i := 0; i < 200; i++ {
		if err := ctr.Inc(ctx, 1); err != nil {
			t.Fatal(err)
		}
		if _, err := ctr.Value(ctx); err != nil {
			t.Fatal(err)
		}
	}
	var opErr error
	read := testing.AllocsPerRun(2000, func() {
		if _, err := ctr.Value(ctx); err != nil {
			opErr = err
		}
	})
	inc := testing.AllocsPerRun(2000, func() {
		if err := ctr.Inc(ctx, 1); err != nil {
			opErr = err
		}
	})
	if opErr != nil {
		t.Fatal(opErr)
	}
	t.Logf("allocations per served op: read %.1f, increment %.1f", read, inc)
	if read > bound || inc > bound {
		t.Errorf("served read %.1f, increment %.1f allocations; want at most %d each", read, inc, bound)
	}
}
