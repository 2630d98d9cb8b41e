package rsm_test

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"crdtsmr/internal/paxos"
	"crdtsmr/internal/raft"
	"crdtsmr/internal/rsm"
	"crdtsmr/internal/transport"
)

const testElectionTimeout = 50 * time.Millisecond

// protocols are the two log-based replicas the one Node driver runs.
var protocols = []struct {
	name string
	new  func(id transport.NodeID, members []transport.NodeID, sm rsm.StateMachine) (rsm.Replica, error)
}{
	{"raft", func(id transport.NodeID, members []transport.NodeID, sm rsm.StateMachine) (rsm.Replica, error) {
		return raft.NewReplica(id, members, sm)
	}},
	{"paxos", func(id transport.NodeID, members []transport.NodeID, sm rsm.StateMachine) (rsm.Replica, error) {
		rep, err := paxos.NewReplica(id, members, sm)
		if err != nil {
			return nil, err
		}
		rep.LeaseDuration = 4 * testElectionTimeout
		return rep, nil
	}},
}

// forEachProtocol runs test against a fresh n-node cluster of each
// protocol and checks that closing it leaves no goroutine behind.
func forEachProtocol(t *testing.T, n int, test func(t *testing.T, mesh *transport.Mesh, nodes []*rsm.Node)) {
	for _, p := range protocols {
		p := p
		t.Run(p.name, func(t *testing.T) {
			before := runtime.NumGoroutine()
			mesh := transport.NewMesh()
			members := make([]transport.NodeID, n)
			for i := range members {
				members[i] = transport.NodeID(fmt.Sprintf("n%d", i+1))
			}
			var nodes []*rsm.Node
			t.Cleanup(func() {
				for _, node := range nodes {
					_ = node.Close()
				}
				mesh.Close()
				waitGoroutines(t, before)
			})
			for _, id := range members {
				rep, err := p.new(id, members, rsm.NewCounter())
				if err != nil {
					t.Fatal(err)
				}
				nodes = append(nodes, rsm.NewNode(rep, rsm.Config{ElectionTimeout: testElectionTimeout},
					func(id transport.NodeID, h transport.Handler) transport.Conn { return mesh.Join(id, h) }))
			}
			test(t, mesh, nodes)
		})
	}
}

// waitGoroutines fails the test if the goroutine count does not return to
// the level seen before the cluster started. It polls: timer callbacks and
// mesh deliveries in flight at Close take a moment to run out.
func waitGoroutines(t *testing.T, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > want {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Errorf("%d goroutines after Close, %d before start:\n%s",
				runtime.NumGoroutine(), want, buf[:runtime.Stack(buf, true)])
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func readValue(t *testing.T, ctx context.Context, node *rsm.Node) int64 {
	t.Helper()
	res, err := node.Read(ctx, rsm.EncodeRead())
	if err != nil {
		t.Fatal(err)
	}
	v, err := rsm.DecodeValue(res)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

func TestNodeClusterExecutes(t *testing.T) {
	forEachProtocol(t, 3, func(t *testing.T, _ *transport.Mesh, nodes []*rsm.Node) {
		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
		defer cancel()
		for i := 0; i < 5; i++ {
			if _, err := nodes[i%3].Execute(ctx, rsm.EncodeInc(1)); err != nil {
				t.Fatalf("execute %d: %v", i, err)
			}
		}
		if v := readValue(t, ctx, nodes[2]); v != 5 {
			t.Fatalf("read = %d, want 5", v)
		}
		// A read appended to the log like any command sees the same value.
		res, err := nodes[1].Execute(ctx, rsm.EncodeRead())
		if err != nil {
			t.Fatal(err)
		}
		if v, err := rsm.DecodeValue(res); err != nil || v != 5 {
			t.Fatalf("logged read = %d (%v), want 5", v, err)
		}
	})
}

func TestNodeConcurrentClients(t *testing.T) {
	forEachProtocol(t, 3, func(t *testing.T, _ *transport.Mesh, nodes []*rsm.Node) {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()

		const clients, ops = 6, 10
		var wg sync.WaitGroup
		var fails atomic.Int64
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				node := nodes[c%len(nodes)]
				for i := 0; i < ops; i++ {
					if _, err := node.Execute(ctx, rsm.EncodeInc(1)); err != nil {
						fails.Add(1)
						return
					}
					if i%3 == 0 {
						if _, err := node.Read(ctx, rsm.EncodeRead()); err != nil {
							fails.Add(1)
							return
						}
					}
				}
			}(c)
		}
		wg.Wait()
		if fails.Load() != 0 {
			t.Fatalf("%d clients failed", fails.Load())
		}
		if v := readValue(t, ctx, nodes[0]); v != clients*ops {
			t.Fatalf("value = %d, want %d", v, clients*ops)
		}
	})
}

func TestNodeLeaderFailover(t *testing.T) {
	forEachProtocol(t, 3, func(t *testing.T, mesh *transport.Mesh, nodes []*rsm.Node) {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()

		if _, err := nodes[0].Execute(ctx, rsm.EncodeInc(1)); err != nil {
			t.Fatal(err)
		}
		// Find and kill the leader.
		leaderIdx := -1
		deadline := time.Now().Add(5 * time.Second)
		for leaderIdx < 0 && time.Now().Before(deadline) {
			for i, n := range nodes {
				if n.IsLeader() {
					leaderIdx = i
					break
				}
			}
			time.Sleep(5 * time.Millisecond)
		}
		if leaderIdx < 0 {
			t.Fatal("no leader emerged")
		}
		mesh.SetDown(nodes[leaderIdx].ID(), true)
		nodes[leaderIdx].SetCrashed(true)

		// A surviving node still gets commands through after a new election.
		survivor := nodes[(leaderIdx+1)%3]
		if _, err := survivor.Execute(ctx, rsm.EncodeInc(1)); err != nil {
			t.Fatalf("execute after failover: %v", err)
		}
		if v := readValue(t, ctx, survivor); v != 2 {
			t.Fatalf("value = %d, want 2", v)
		}
	})
}
