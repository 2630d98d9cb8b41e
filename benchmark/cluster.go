package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"crdtsmr/client"
	"crdtsmr/internal/cluster"
	"crdtsmr/internal/core"
	"crdtsmr/internal/crdt"
	"crdtsmr/internal/persist"
	"crdtsmr/internal/server"
	"crdtsmr/internal/transport"
)

// persistWriteDelay is the emulated device flush of the durable
// workload. BENCH_shards.json uses the same value; under it persist
// issues no physical fsync, so the figure does not depend on the host's
// disk.
const persistWriteDelay = time.Millisecond

// served is one cluster wired the way `crdtsmrd serve` wires it with no
// tuning flags — core.DefaultOptions(), full state transfer, default
// shard count and retransmit interval, server.Options{} — with every
// replica fronted by internal/server on a loopback port and one public
// client over all of them.
type served struct {
	ids     []transport.NodeID
	nodes   []*cluster.Node
	servers []*server.Server
	cl      *client.Client

	mesh *transport.Mesh  // injected-delay wiring
	tcps []*transport.TCP // loopback TCP wiring
}

// nodeConfig is the cluster.Config every benchmark node runs: the
// daemon's defaults, plus the durable workload's DataDir.
func nodeConfig(ids []transport.NodeID, dataDir string) cluster.Config {
	cfg := cluster.Config{
		Members:       ids,
		Initial:       crdt.NewGCounter(),
		InitialForKey: server.TypedKeyInitial(crdt.TypeGCounter),
		Options:       core.DefaultOptions(),
	}
	if dataDir != "" {
		cfg.DataDir = dataDir
		cfg.PersistSync = persist.SyncAlways
		cfg.PersistWriteDelay = persistWriteDelay
	}
	return cfg
}

// startCluster starts n replicas for w. dataRoot holds one DataDir per
// node on durable workloads; reopening the same dataRoot rehydrates the
// nodes from their snapshots. tr, when non-nil, decorates every node's
// transport endpoint with hop spans.
func startCluster(w workload, n int, seed uint64, dataRoot string, tr *tracer) (*served, error) {
	s := &served{}
	for i := 0; i < n; i++ {
		s.ids = append(s.ids, transport.NodeID(fmt.Sprintf("n%d", i+1)))
	}
	if w.injected {
		s.mesh = transport.NewMesh(transport.WithDelay(w.minDelay, w.maxDelay), transport.WithSeed(int64(seed)))
	}
	for i, id := range s.ids {
		dir := ""
		if w.durable {
			dir = filepath.Join(dataRoot, string(id))
		}
		var joinErr error
		node, err := cluster.NewNode(id, nodeConfig(s.ids, dir), func(nid transport.NodeID, h transport.Handler) transport.Conn {
			if tr != nil {
				h = tr.wrapHandler(nid, h)
			}
			var conn transport.Conn
			if s.mesh != nil {
				conn = s.mesh.Join(nid, h)
			} else {
				// Peers are registered once every listener has its port.
				t, err := transport.NewTCP(nid, "127.0.0.1:0", nil, h)
				if err != nil {
					joinErr = err
					return nopConn(nid)
				}
				s.tcps = append(s.tcps, t)
				conn = t
			}
			if tr != nil {
				conn = tr.wrapConn(conn)
			}
			return conn
		})
		if err == nil {
			err = joinErr
		}
		if node != nil {
			s.nodes = append(s.nodes, node)
		}
		if err != nil {
			s.close()
			return nil, fmt.Errorf("start node %d: %w", i+1, err)
		}
	}
	for i, t := range s.tcps {
		for j, peer := range s.tcps {
			if i != j {
				t.AddPeer(s.ids[j], peer.Addr())
			}
		}
	}
	var addrs []string
	for _, node := range s.nodes {
		srv, err := server.Start(node, "127.0.0.1:0", server.Options{})
		if err != nil {
			s.close()
			return nil, err
		}
		s.servers = append(s.servers, srv)
		addrs = append(addrs, srv.Addr())
	}
	// One pipelined connection per replica: the fewest sockets that
	// spread the sessions over all replicas, as the paper's clients are.
	cl, err := client.New(addrs, client.WithPool(1))
	if err != nil {
		s.close()
		return nil, err
	}
	s.cl = cl
	return s, nil
}

// nopConn stands in when a TCP endpoint failed to start, so NewNode can
// finish and the error surfaces from startCluster.
type nopConn transport.NodeID

func (c nopConn) ID() transport.NodeID          { return transport.NodeID(c) }
func (c nopConn) Send(transport.NodeID, []byte) {}
func (c nopConn) Close() error                  { return nil }

// close stops the client, the servers, the nodes and the mesh, in that
// order, and waits for their goroutines.
func (s *served) close() {
	if s.cl != nil {
		_ = s.cl.Close()
	}
	for _, srv := range s.servers {
		_ = srv.Close()
	}
	for _, node := range s.nodes {
		_ = node.Close()
	}
	if s.mesh != nil {
		s.mesh.Close()
	}
}

// preload brings every key of w's pool to its starting state, in
// process: or-set keys are merged with one bulk update each (the state
// under test is a 1000-element set, not the 1000 requests that would
// build it); counter keys are read once, which instantiates the key's
// replica on every node so the measured window never pays a key's first
// touch.
func (s *served) preload(w workload, template crdt.State) error {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	for i := 0; i < w.totalKeys(); i++ {
		node, key := s.nodes[i%len(s.nodes)], w.keyName(i)
		var err error
		if template != nil {
			_, err = node.UpdateKey(ctx, key, func(st crdt.State) (crdt.State, error) {
				return st.Merge(template)
			})
		} else {
			_, _, err = node.QueryKey(ctx, key)
		}
		if err != nil {
			return fmt.Errorf("preload %s: %w", key, err)
		}
	}
	return nil
}

// setTemplate builds the or-set every large-set key is preloaded with.
// States are immutable, so all keys share it.
func setTemplate(elements int) crdt.State {
	set := crdt.NewORSet()
	for i := 0; i < elements; i++ {
		set = set.Add(fmt.Sprintf("session/%04d/0123456789abcdef", i), "preload", uint64(i+1))
	}
	return set
}

// stats sums the replica-mesh counters over all endpoints.
func (s *served) stats() transport.Stats {
	if s.mesh != nil {
		return s.mesh.Stats()
	}
	var sum transport.Stats
	sum.Links = map[transport.Link]transport.LinkStats{}
	for _, t := range s.tcps {
		st := t.Stats()
		sum.Sent += st.Sent
		sum.Delivered += st.Delivered
		sum.Dropped += st.Dropped
		sum.Bytes += st.Bytes
		sum.BytesSent += st.BytesSent
		for l, ls := range st.Links {
			if l.From == t.ID() { // each directed link once, at its sender
				sum.Links[l] = ls
			}
		}
	}
	return sum
}

// counters sums the protocol counters over all nodes.
func (s *served) counters() core.Counters {
	var sum core.Counters
	for _, node := range s.nodes {
		sum.Add(node.Counters())
	}
	return sum
}

// scratchDir creates a fresh directory under root for data that must not
// outlive the run.
func scratchDir(root, pattern string) (string, error) {
	if err := os.MkdirAll(root, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(root, pattern)
}
