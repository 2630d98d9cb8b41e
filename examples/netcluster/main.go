// Network cluster: serve a replica group to remote clients over the
// documented client protocol (docs/PROTOCOL.md).
//
// This demo wires up what a cmd/crdtsmrd deployment runs across machines,
// inside one process so it needs no terminals: three replicas connected
// by the real TCP transport, each fronted by an internal/server endpoint,
// driven by the public crdtsmr/client package — typed handles, pipelined
// connections, and failover when a replica goes down mid-traffic.
//
// The demo ends by reporting the replica-wire bytes the run cost. Its
// payloads are tiny counters, far below the 1 KiB size switch of
// docs/PROTOCOL.md §3, so every state travels in full frames; digests and
// deltas take over as objects grow (TestTransferModesByteReduction in
// internal/core counts both sides on or-sets):
//
//	go run ./examples/netcluster
package main

import (
	"context"
	"fmt"
	"log"
	"net"
	"sync"
	"time"

	"crdtsmr/client"
	"crdtsmr/internal/cluster"
	"crdtsmr/internal/core"
	"crdtsmr/internal/crdt"
	"crdtsmr/internal/server"
	"crdtsmr/internal/transport"
)

func main() {
	ids := []transport.NodeID{"n1", "n2", "n3"}

	// Reserve a mesh address per replica so every node can be configured
	// with its peers' addresses up front.
	meshAddrs := make(map[transport.NodeID]string, len(ids))
	for _, id := range ids {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			log.Fatal(err)
		}
		meshAddrs[id] = ln.Addr().String()
		_ = ln.Close()
	}

	cfg := cluster.Config{
		Members:            ids,
		Initial:            crdt.NewGCounter(),
		InitialForKey:      server.TypedKeyInitial(crdt.TypeGCounter),
		Options:            core.DefaultOptions(),
		RetransmitInterval: 20 * time.Millisecond,
	}
	var nodes []*cluster.Node
	var servers []*server.Server
	var addrs []string
	var meshConns []*transport.TCP
	for _, id := range ids {
		id := id
		node, err := cluster.NewNode(id, cfg, func(nid transport.NodeID, h transport.Handler) transport.Conn {
			peers := make(map[transport.NodeID]string)
			for p, a := range meshAddrs {
				if p != nid {
					peers[p] = a
				}
			}
			t, err := transport.NewTCP(nid, meshAddrs[nid], peers, h)
			if err != nil {
				log.Fatalf("replica %s: %v", nid, err)
			}
			meshConns = append(meshConns, t)
			return t
		})
		if err != nil {
			log.Fatal(err)
		}
		defer node.Close()
		nodes = append(nodes, node)

		srv, err := server.Start(node, "127.0.0.1:0", server.Options{})
		if err != nil {
			log.Fatal(err)
		}
		defer srv.Close()
		servers = append(servers, srv)
		addrs = append(addrs, srv.Addr())
		fmt.Printf("replica %s: mesh %s, clients %s\n", id, meshAddrs[id], srv.Addr())
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	// Eight concurrent clients pound one counter key through different
	// servers, pipelining over pooled connections.
	c, err := client.New(addrs)
	if err != nil {
		log.Fatal(err)
	}
	defer c.Close()

	const workers, each = 8, 10
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ctr := c.Counter("views")
			for i := 0; i < each; i++ {
				if err := ctr.Inc(ctx, 1); err != nil {
					log.Fatalf("inc: %v", err)
				}
			}
		}()
	}
	wg.Wait()
	v, err := c.Counter("views").Value(ctx)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("views = %d (want %d) after %d clients × %d incs\n", v, workers*each, workers, each)
	if v != workers*each {
		log.Fatalf("lost updates: got %d", v)
	}

	// Mixed payload types by key-prefix convention, over the same wire.
	set := c.Set("or-set/sessions")
	for _, u := range []string{"alice", "bob", "carol"} {
		if err := set.Add(ctx, u); err != nil {
			log.Fatal(err)
		}
	}
	if err := set.Remove(ctx, "bob"); err != nil {
		log.Fatal(err)
	}
	members, err := set.Elements(ctx)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("sessions = %v (want [alice carol])\n", members)

	// Failover: crash n1's replica; its server answers "unavailable"
	// (provably not applied), and the client retries on n2/n3.
	nodes[0].SetCrashed(true)
	fmt.Println("replica n1 crashed; continuing through n2/n3")
	for i := 0; i < 10; i++ {
		if err := c.Counter("views").Inc(ctx, 1); err != nil {
			log.Fatalf("inc with n1 down: %v", err)
		}
	}
	v, err = c.Counter("views").Value(ctx)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("views = %d (want %d) with one replica down\n", v, workers*each+10)
	if v != workers*each+10 {
		log.Fatalf("lost updates during failover: got %d", v)
	}

	// The replica wire's byte bill for the whole run.
	var meshBytes, meshMsgs uint64
	for _, t := range meshConns {
		st := t.Stats()
		meshBytes += st.BytesSent
		meshMsgs += st.Sent
	}
	fmt.Printf("replica wire: %d messages, %d payload bytes\n", meshMsgs, meshBytes)

	fmt.Println("ok: network clients stayed linearizable across a replica crash")
}
