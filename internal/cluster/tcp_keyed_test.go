package cluster

import (
	"context"
	"fmt"
	"net"
	"testing"
	"time"

	"crdtsmr/internal/core"
	"crdtsmr/internal/crdt"
	"crdtsmr/internal/transport"
)

// reservePorts picks n distinct loopback addresses by binding and
// immediately releasing listeners, so the nodes' TCP transports can be
// configured with each other's addresses up front.
func reservePorts(t *testing.T, n int) []string {
	t.Helper()
	addrs := make([]string, n)
	listeners := make([]net.Listener, n)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		listeners[i] = ln
		addrs[i] = ln.Addr().String()
	}
	for _, ln := range listeners {
		_ = ln.Close()
	}
	return addrs
}

// TestKeyedStoreOverTCP exercises the multi-object surface end to end over
// real sockets: three nodes connected by the TCP transport serve several
// independent keys, each key's protocol messages multiplexed over the
// object-ID envelope on the nodes' single connections.
func TestKeyedStoreOverTCP(t *testing.T) {
	ids := members(3)
	addrs := reservePorts(t, 3)
	book := make(map[transport.NodeID]string, 3)
	for i, id := range ids {
		book[id] = addrs[i]
	}

	cfg := Config{
		Members:            ids,
		Initial:            crdt.NewGCounter(),
		Options:            core.DefaultOptions(),
		RetransmitInterval: 20 * time.Millisecond,
	}
	nodes := make([]*Node, 0, 3)
	defer func() {
		for _, n := range nodes {
			_ = n.Close()
		}
	}()
	for _, id := range ids {
		node, err := NewNode(id, cfg, func(nid transport.NodeID, h transport.Handler) transport.Conn {
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
		nodes = append(nodes, node)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	const nKeys = 8
	for k := 0; k < nKeys; k++ {
		key := fmt.Sprintf("tcp/%d", k)
		at := nodes[k%len(nodes)]
		slot := string(at.ID())
		if _, err := at.UpdateKey(ctx, key, func(s crdt.State) (crdt.State, error) {
			return s.(*crdt.GCounter).Inc(slot, uint64(k+1)), nil
		}); err != nil {
			t.Fatalf("update %s over TCP: %v", key, err)
		}
	}

	// Linearizable keyed reads at a different replica than the writer.
	for k := 0; k < nKeys; k++ {
		key := fmt.Sprintf("tcp/%d", k)
		reader := nodes[(k+1)%len(nodes)]
		s, _, err := reader.QueryKey(ctx, key)
		if err != nil {
			t.Fatalf("query %s over TCP: %v", key, err)
		}
		if got := s.(*crdt.GCounter).Value(); got != uint64(k+1) {
			t.Fatalf("key %s = %d, want %d", key, got, k+1)
		}
	}

	// Every node instantiated the keys lazily from inbound TCP frames.
	for _, n := range nodes {
		if got := len(n.Keys()); got < nKeys {
			t.Fatalf("node %s holds %d objects, want ≥ %d", n.ID(), got, nKeys)
		}
	}
}
