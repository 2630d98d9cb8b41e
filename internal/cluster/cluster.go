package cluster

import (
	"fmt"
	"path/filepath"

	"crdtsmr/internal/transport"
)

// Cluster is a convenience wrapper running one Node per member over a
// shared in-process Network — the deployment behind the crdtsmr facade
// (and so the in-process examples) and the integration tests. The daemon,
// the benchmark and examples/netcluster call NewNode per replica instead.
type Cluster struct {
	net   Network
	nodes map[transport.NodeID]*Node
	order []transport.NodeID
}

// Network is the in-process network a Cluster runs on. Its nodes run
// their shards on goroutines and the wall clock (NewNode), or, when the
// network is also their Clock, as a transport.Fabric is, as steps on its
// virtual clock (NewSteppedNode), which needs an explicit cfg.Shards.
type Network interface {
	Join(transport.NodeID, transport.Handler) transport.Conn
	SetDown(transport.NodeID, bool)
}

// New starts a node for every member of cfg over the given network. When
// cfg.DataDir is set, every node persists into its own subdirectory
// (<DataDir>/<id>), mirroring one process per replica each with its own
// -data-dir.
func New(net Network, cfg Config) (*Cluster, error) {
	c := &Cluster{
		net:   net,
		nodes: make(map[transport.NodeID]*Node, len(cfg.Members)),
		order: append([]transport.NodeID(nil), cfg.Members...),
	}
	for _, id := range cfg.Members {
		n, err := c.start(id, cfg)
		if err != nil {
			c.Close()
			return nil, fmt.Errorf("cluster: start %s: %w", id, err)
		}
		c.nodes[id] = n
	}
	return c, nil
}

// start creates node id on the cluster's network, in its own
// subdirectory of any DataDir.
func (c *Cluster) start(id transport.NodeID, cfg Config) (*Node, error) {
	if cfg.DataDir != "" {
		cfg.DataDir = filepath.Join(cfg.DataDir, string(id))
	}
	if clock, ok := c.net.(Clock); ok {
		return NewSteppedNode(id, cfg, clock, c.net.Join)
	}
	return NewNode(id, cfg, c.net.Join)
}

// AddNode starts a new node on the cluster's network as a joiner: it
// comes up with an empty member set, refuses client commands, and serves
// no quorums until an existing member reconfigures it in with
// Node.Reconfigure — which also bootstraps its per-key state from the
// configuration pushes. cfg is the node's configuration (typically the
// same one the cluster was created with); its Members field is ignored
// for the protocol and Joining is forced on. With a DataDir set the
// joiner persists into its own subdirectory like every other node.
func (c *Cluster) AddNode(id transport.NodeID, cfg Config) (*Node, error) {
	if _, ok := c.nodes[id]; ok {
		return nil, fmt.Errorf("cluster: node %s already exists", id)
	}
	cfg.Joining = true
	n, err := c.start(id, cfg)
	if err != nil {
		return nil, fmt.Errorf("cluster: add %s: %w", id, err)
	}
	c.nodes[id] = n
	c.order = append(c.order, id)
	return n, nil
}

// RemoveNode stops the named node and detaches it from the network. The
// caller is expected to have reconfigured it out of the member set first
// (Node.Reconfigure on a survivor); removing a current member is a crash,
// which the protocol tolerates but the operator presumably did not mean.
func (c *Cluster) RemoveNode(id transport.NodeID) error {
	n := c.nodes[id]
	if n == nil {
		return fmt.Errorf("cluster: remove of unknown node %s", id)
	}
	delete(c.nodes, id)
	for i, oid := range c.order {
		if oid == id {
			c.order = append(c.order[:i], c.order[i+1:]...)
			break
		}
	}
	return n.Close()
}

// Node returns the node with the given ID, or nil.
func (c *Cluster) Node(id transport.NodeID) *Node { return c.nodes[id] }

// Nodes returns the nodes in member order.
func (c *Cluster) Nodes() []*Node {
	out := make([]*Node, 0, len(c.order))
	for _, id := range c.order {
		if n, ok := c.nodes[id]; ok {
			out = append(out, n)
		}
	}
	return out
}

// Crash simulates a crash of the named node: the network drops its
// traffic and the node fails its commands. Internal state is retained
// (crash-recovery model, §2.1). The survivors, in member order, drop
// their digest/delta transfer caches about the crashed node — peer-down
// is the signal that bounds how stale those caches can get.
func (c *Cluster) Crash(id transport.NodeID) {
	c.net.SetDown(id, true)
	if n := c.nodes[id]; n != nil {
		n.SetCrashed(true)
	}
	c.forget(id)
}

// forget has every other node, in member order, drop its caches about id.
func (c *Cluster) forget(id transport.NodeID) {
	for _, oid := range c.order {
		if oid != id {
			c.nodes[oid].ForgetPeer(id)
		}
	}
}

// Recover brings a crashed node back with its retained state.
func (c *Cluster) Recover(id transport.NodeID) {
	c.net.SetDown(id, false)
	if n := c.nodes[id]; n != nil {
		n.SetCrashed(false)
	}
}

// Restart brings a node back the hard way: its volatile state is
// discarded and the keyspace rehydrated from its snapshot directory, as
// if the process had been killed and re-exec'd with the same -data-dir.
// The survivors' digest/delta caches about the node are dropped first
// (the restarted node's own caches are gone with its volatile state), so
// the PR 4 transfer machinery re-earns its assumptions from fresh
// traffic. Works on a crashed node (the usual sequence: Crash, then
// Restart) and on a live one (a rolling restart). Requires the cluster
// to have been created with a DataDir.
func (c *Cluster) Restart(id transport.NodeID) error {
	n := c.nodes[id]
	if n == nil {
		return fmt.Errorf("cluster: restart of unknown node %s", id)
	}
	c.forget(id)
	if err := n.Restart(); err != nil {
		return err
	}
	c.net.SetDown(id, false)
	return nil
}

// Close stops every node, in member order.
func (c *Cluster) Close() {
	for _, id := range c.order {
		if n := c.nodes[id]; n != nil {
			_ = n.Close()
		}
	}
}
