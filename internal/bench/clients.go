package bench

// The network-path scenario: the sharded store served to closed-loop
// clients through the real client/server stack — TCP sockets, frame
// codec, pipelined connections — while the replicas talk to each other
// over the emulated mesh. The replica mesh keeps the configured emulated
// delay, so per-key traffic stays latency-bound and throughput scaling
// with clients and keys is visible even on a single-CPU box; the client
// path is real, so the measurement includes the full serving overhead
// (framing, demultiplexing, goroutine dispatch).

import (
	"context"
	"fmt"
	"io"
	"time"

	"crdtsmr/client"
	"crdtsmr/internal/cluster"
	"crdtsmr/internal/crdt"
	"crdtsmr/internal/server"
)

// frontend fronts every node of a cluster with a TCP server on an
// ephemeral loopback port and one client-library instance bound to that
// server alone: bench clients of a replica share its pool and pipeline
// over a few connections, and a crashed replica surfaces errors instead of
// silently failing over.
type frontend struct {
	servers []*server.Server
	clients []*client.Client // one per server, shared by bench clients
}

func frontNodes(nodes []*cluster.Node, so server.Options, co ...client.Option) (*frontend, error) {
	f := &frontend{}
	for _, node := range nodes {
		srv, err := server.Start(node, "127.0.0.1:0", so)
		if err != nil {
			f.Close()
			return nil, err
		}
		f.servers = append(f.servers, srv)
		cl, err := client.New([]string{srv.Addr()}, co...)
		if err != nil {
			f.Close()
			return nil, err
		}
		f.clients = append(f.clients, cl)
	}
	return f, nil
}

func (f *frontend) Close() {
	for _, cl := range f.clients {
		_ = cl.Close()
	}
	for _, srv := range f.servers {
		_ = srv.Close()
	}
}

// NetSystem is a CRDTSystem behind the network serving layer. Bench
// client i works key i mod nKeys through the server of replica
// (i / nKeys) mod replicas, one pooled pipelined client library instance
// per server.
type NetSystem struct {
	*CRDTSystem
	front *frontend
}

// NewNetSystem starts the keyed store over n replicas and nKeys keys,
// each replica fronted by a TCP server on an ephemeral loopback port.
func NewNetSystem(n, nKeys int, batch time.Duration, net NetProfile) (*NetSystem, error) {
	if nKeys <= 0 {
		return nil, fmt.Errorf("bench: need at least one key, got %d", nKeys)
	}
	sys, err := NewCRDTSystem(n, CRDTOpts{Keys: nKeys, Batch: batch}, net)
	if err != nil {
		return nil, err
	}
	sys.name = fmt.Sprintf("CRDT Paxos served(%d keys)", nKeys)
	if batch > 0 {
		sys.name += fmt.Sprintf(" w/batching(%s)", batch)
	}
	// One attempt, no fail-over: Run redirects, as for other systems.
	front, err := frontNodes(sys.clust.Nodes(), server.Options{},
		client.WithRetryPolicy(client.RetryPolicy{MaxAttempts: 1}),
		client.WithPool(4))
	if err != nil {
		sys.Close()
		return nil, err
	}
	return &NetSystem{CRDTSystem: sys, front: front}, nil
}

// Client implements System.
func (s *NetSystem) Client(i int) Client {
	key := s.keys[i%len(s.keys)]
	cl := s.front.clients[(i/len(s.keys))%len(s.front.clients)]
	return &netClient{cl: cl, key: key, ctr: cl.Counter(key)}
}

// Close implements System.
func (s *NetSystem) Close() {
	s.front.Close()
	s.CRDTSystem.Close()
}

type netClient struct {
	cl  *client.Client
	key string
	ctr *client.Counter
}

func (c *netClient) Inc(ctx context.Context) error { return c.ctr.Inc(ctx, 1) }

// Read queries through the raw client so the protocol round-trip count
// the response carries reaches the RTT histogram, like the other systems.
func (c *netClient) Read(ctx context.Context) (int64, int, error) {
	st, info, err := c.cl.Query(ctx, c.key)
	if err != nil {
		return 0, 0, err
	}
	g, ok := st.(*crdt.GCounter)
	if !ok {
		return 0, 0, fmt.Errorf("bench: payload of %q is %s, not a G-Counter", c.key, st.TypeName())
	}
	return int64(g.Value()), info.RoundTrips, nil
}

// ClientsSweepPoint is one measurement of the clients × keys sweep.
type ClientsSweepPoint struct {
	Keys    int
	Clients int
	Result  Result
}

// RunClientsSweep measures the served store under a clients × keys grid:
// for every key count, every client count of the sweep runs against a
// fresh NetSystem. Clients spread over keys round-robin and over replicas
// per key, like the in-process sweeps.
func RunClientsSweep(s Scale, keyCounts, clientCounts []int, readFraction float64, batch time.Duration) ([]ClientsSweepPoint, error) {
	var points []ClientsSweepPoint
	for _, k := range keyCounts {
		for _, clients := range clientCounts {
			sys, err := NewNetSystem(s.Replicas, k, batch, s.Net)
			if err != nil {
				return nil, err
			}
			res := Run(sys, RunConfig{
				Clients:      clients,
				ReadFraction: readFraction,
				Duration:     s.Duration,
				Warmup:       s.Warmup,
				Seed:         s.Net.Seed,
			})
			sys.Close()
			if res.Errors > 0 {
				return nil, fmt.Errorf("bench: %d errors at %d keys, %d clients", res.Errors, k, clients)
			}
			points = append(points, ClientsSweepPoint{Keys: k, Clients: clients, Result: res})
		}
	}
	return points, nil
}

// FigureClients reports the many-clients network-path sweep: throughput
// of the served store (real TCP client path, emulated replica mesh) as
// the closed-loop client count grows, one row per keyspace size. The
// comparison against Figure K's in-process numbers isolates the cost of
// the serving layer itself.
func FigureClients(w io.Writer, s Scale, keyCounts, clientCounts []int) error {
	const readFraction = 0.9
	fmt.Fprintf(w, "Figure C: served-store throughput vs clients (%d replicas, %.0f%% reads, TCP client path)\n",
		s.Replicas, readFraction*100)
	for _, batch := range []time.Duration{0, s.Batch} {
		label := "without batching"
		if batch > 0 {
			label = fmt.Sprintf("with per-key %s batching", batch)
		}
		fmt.Fprintf(w, "\n  %s\n", label)
		fmt.Fprintf(w, "  %-12s", "keys\\clients")
		for _, c := range clientCounts {
			fmt.Fprintf(w, "%12d", c)
		}
		fmt.Fprintln(w)
		points, err := RunClientsSweep(s, keyCounts, clientCounts, readFraction, batch)
		if err != nil {
			return err
		}
		i := 0
		for _, k := range keyCounts {
			fmt.Fprintf(w, "  %-12d", k)
			for range clientCounts {
				fmt.Fprintf(w, "%12.0f", points[i].Result.Throughput)
				i++
			}
			fmt.Fprintln(w)
		}
	}
	return nil
}
