// Command crdtsmrd is the cluster daemon: it runs one replica of a
// linearizable CRDT keyspace — joining the replica mesh over TCP
// (internal/transport) and serving remote clients the frame protocol of
// docs/PROTOCOL.md (internal/server) — plus a small client CLI speaking
// that protocol through the public crdtsmr/client package.
//
// Start a 3-node cluster (separate terminals or machines):
//
//	crdtsmrd serve -id n1 -listen 127.0.0.1:7701 -peers n1=127.0.0.1:7701,n2=127.0.0.1:7702,n3=127.0.0.1:7703
//	crdtsmrd serve -id n2 -listen 127.0.0.1:7702 -peers n1=127.0.0.1:7701,n2=127.0.0.1:7702,n3=127.0.0.1:7703
//	crdtsmrd serve -id n3 -listen 127.0.0.1:7703 -peers n1=127.0.0.1:7701,n2=127.0.0.1:7702,n3=127.0.0.1:7703
//
// Each replica serves clients on -client-listen (default: the replica
// port + 1000). Any replica serves any key; keys whose first path
// segment names a CRDT type hold that type ("or-set/sessions",
// "lww-register/config"), all others hold the -payload type:
//
//	crdtsmrd inc  -addrs 127.0.0.1:8701 -key views -n 5
//	crdtsmrd get  -addrs 127.0.0.1:8702,127.0.0.1:8703 -key views
//	crdtsmrd add  -addrs 127.0.0.1:8701 -key or-set/sessions -elem alice
//	crdtsmrd set  -addrs 127.0.0.1:8702 -key lww-register/config -value v2
//	crdtsmrd keys -addrs 127.0.0.1:8703
//
// The client CLI accepts several -addrs and fails over between them, so
// any single replica may be down.
//
// With -data-dir, a replica snapshots every object's CRDT payload and
// consensus metadata to disk after each durable transition — log-free
// recovery per the paper: kill -9 the process, re-exec it with the same
// -data-dir, and it serves its pre-crash data (see the README's
// crash-recovery quickstart and docs/PROTOCOL.md §4 for the file format).
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"crdtsmr/client"
	"crdtsmr/internal/cluster"
	"crdtsmr/internal/core"
	"crdtsmr/internal/crdt"
	"crdtsmr/internal/persist"
	"crdtsmr/internal/server"
	"crdtsmr/internal/transport"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	var err error
	switch cmd := os.Args[1]; cmd {
	case "serve":
		err = serve(os.Args[2:])
	case "inc", "dec", "get", "add", "remove", "set", "ping", "keys",
		"members", "member-add", "member-remove":
		err = clientOp(cmd, os.Args[2:])
	default:
		usage()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "crdtsmrd:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: crdtsmrd <command> [flags]

server:
  serve    run one replica (joins the mesh, serves clients)

client (all take -addrs, a comma-separated server list):
  inc      increment a counter key        (-key, -n)
  dec      decrement a pn-counter/ key    (-key, -n)
  get      linearizable read of any key   (-key)
  add      add to an or-set/ key          (-key, -elem)
  remove   remove from an or-set/ key     (-key, -elem)
  set      write an lww-register/ key     (-key, -value)
  ping     round-trip a frame
  keys     list keys on the answering replica

membership (online reconfiguration; see docs/PROTOCOL.md §6):
  members        print the configuration epoch and member list
  member-add     add a replica          (-member, -mesh, -client-addr)
  member-remove  remove a replica       (-member)

To grow a cluster: start the joiner with 'serve -join' (it comes up
refusing commands), then 'member-add' against any current member with
the joiner's mesh and client addresses. The joint-quorum commit
bootstraps the joiner's state; it serves once the new epoch reaches it.`)
	os.Exit(2)
}

func serve(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	id := fs.String("id", "", "replica ID (must appear in -peers)")
	listen := fs.String("listen", "", "replica-mesh listen address (host:port)")
	clientListen := fs.String("client-listen", "", "client listen address (default: mesh port + 1000)")
	peersFlag := fs.String("peers", "", "comma-separated id=addr pairs for the full cluster")
	batch := fs.Duration("batch", 0, "per-key batching window (0 disables; the paper evaluated 5ms)")
	payload := fs.String("payload", crdt.TypeGCounter, "CRDT type of keys without a type prefix")
	lease := fs.Bool("lease", true, "round-lease query fast path (docs/PROTOCOL.md §5); changes round trips, never outcomes")
	dataDir := fs.String("data-dir", "", "snapshot directory for crash recovery; a killed replica re-exec'd with the same directory serves its pre-crash data (empty: volatile)")
	recoverFlag := fs.String("recover", "strict", "corrupt-snapshot policy at startup: strict (refuse to start) or ignore-corrupt (affected keys start fresh and re-learn from the cluster)")
	fsync := fs.Bool("fsync", false, "fsync every snapshot write (survives power loss, not just process death)")
	shards := fs.Int("shards", 0, "key-sharded event loops per replica; keys hash to a shard and shards share nothing on the hot path (0: CRDTSMR_SHARDS env, else one per CPU)")
	maxConns := fs.Int("max-conns", 0, "client connection cap; further connections get one busy frame and a close (0: default 1024)")
	maxInflight := fs.Int("max-inflight", 0, "server-wide executing-request cap; excess is answered busy instead of queued (0: default 4096)")
	join := fs.Bool("join", false, "start as a joiner: empty member set, refuses commands until an existing member reconfigures it in with member-add (-peers then lists the current members, for the mesh)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *id == "" || *listen == "" || *peersFlag == "" {
		return fmt.Errorf("serve requires -id, -listen, and -peers")
	}
	initial, err := crdt.New(*payload)
	if err != nil {
		return fmt.Errorf("-payload: %w (known types: %s)", err, strings.Join(crdt.Names(), ", "))
	}
	recoverPolicy, err := persist.ParseRecoverPolicy(*recoverFlag)
	if err != nil {
		return fmt.Errorf("-recover: %w", err)
	}
	syncPolicy := persist.SyncNone
	if *fsync {
		syncPolicy = persist.SyncAlways
	}

	peers := map[transport.NodeID]string{}
	var members []transport.NodeID
	for _, pair := range strings.Split(*peersFlag, ",") {
		kv := strings.SplitN(strings.TrimSpace(pair), "=", 2)
		if len(kv) != 2 {
			return fmt.Errorf("bad peer %q (want id=addr)", pair)
		}
		pid := transport.NodeID(kv[0])
		if _, dup := peers[pid]; dup {
			return fmt.Errorf("-peers lists %s twice", pid)
		}
		peers[pid] = kv[1]
		members = append(members, pid)
	}
	if _, ok := peers[transport.NodeID(*id)]; !ok && !*join {
		return fmt.Errorf("-id %q does not appear in -peers (use -join to start outside the member set)", *id)
	}

	opts := core.DefaultOptions()
	opts.Lease = *lease

	var tcpErr error
	var mesh *transport.TCP
	node, err := cluster.NewNode(transport.NodeID(*id), cluster.Config{
		Members:       members,
		Joining:       *join,
		Initial:       initial,
		InitialForKey: server.TypedKeyInitial(*payload),
		Options:       opts,
		BatchInterval: *batch,
		Shards:        *shards,
		DataDir:       *dataDir,
		PersistSync:   syncPolicy,
		Recover:       recoverPolicy,
	}, func(nid transport.NodeID, h transport.Handler) transport.Conn {
		remote := map[transport.NodeID]string{}
		for p, a := range peers {
			if p != nid {
				remote[p] = a
			}
		}
		t, err := transport.NewTCP(nid, *listen, remote, h)
		if err != nil {
			tcpErr = err
			return nopConn(nid)
		}
		mesh = t
		return t
	})
	if tcpErr != nil {
		return tcpErr
	}
	if err != nil {
		return err
	}
	defer node.Close()

	clientAddr := *clientListen
	if clientAddr == "" {
		clientAddr, err = plusThousand(*listen)
		if err != nil {
			return err
		}
	}
	// Advertise each member's client address for the members admin
	// command: every -peers entry is assumed to follow the mesh-port+1000
	// convention (member-add can register explicit addresses later), and
	// this replica's own entry uses the actual -client-listen address.
	memberAddrs := map[string]string{string(transport.NodeID(*id)): clientAddr}
	for p, a := range peers {
		if string(p) == *id {
			continue
		}
		if ca, err := plusThousand(a); err == nil {
			memberAddrs[string(p)] = ca
		}
	}
	srv, err := server.Start(node, clientAddr, server.Options{
		MaxConns:         *maxConns,
		MaxTotalInFlight: *maxInflight,
		MemberAddrs:      memberAddrs,
		RegisterPeer: func(pid, addr string) error {
			if mesh == nil {
				return fmt.Errorf("replica mesh transport is not running")
			}
			mesh.AddPeer(transport.NodeID(pid), addr)
			return nil
		},
	})
	if err != nil {
		return err
	}
	defer srv.Close()
	durability := "volatile (no -data-dir)"
	if *dataDir != "" {
		durability = "snapshots in " + *dataDir
		if skipped := node.SkippedSnapshots(); skipped > 0 {
			fmt.Fprintf(os.Stderr, "crdtsmrd: warning: skipped %d corrupt snapshot(s) under -recover=ignore-corrupt; affected keys re-learn from the cluster\n", skipped)
		}
	}
	fmt.Printf("replica %s up: mesh %s, clients %s, default payload %s, %d event-loop shard(s), %s\n",
		*id, *listen, srv.Addr(), *payload, node.Shards(), durability)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	fmt.Printf("replica %s shutting down (%d client requests served)\n", *id, srv.Served())
	return nil
}

// nopConn is returned when the TCP transport failed to start, so NewNode
// can finish and the error surface cleanly instead of os.Exit mid-join.
type nopConn transport.NodeID

func (c nopConn) ID() transport.NodeID          { return transport.NodeID(c) }
func (c nopConn) Send(transport.NodeID, []byte) {}
func (c nopConn) Close() error                  { return nil }

func clientOp(op string, args []string) error {
	fs := flag.NewFlagSet(op, flag.ExitOnError)
	addrs := fs.String("addrs", "", "comma-separated client addresses of one or more replicas")
	key := fs.String("key", "", "object key")
	n := fs.Uint64("n", 1, "amount (inc, dec)")
	elem := fs.String("elem", "", "set element (add, remove)")
	value := fs.String("value", "", "register value (set)")
	member := fs.String("member", "", "replica ID (member-add, member-remove)")
	meshAddr := fs.String("mesh", "", "joiner's replica-mesh address (member-add)")
	clientAddr := fs.String("client-addr", "", "joiner's client address, advertised to members queries (member-add)")
	timeout := fs.Duration("timeout", 10*time.Second, "operation deadline")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *addrs == "" {
		return fmt.Errorf("%s requires -addrs", op)
	}
	switch op {
	case "ping", "keys", "members":
	case "member-add", "member-remove":
		if *member == "" {
			return fmt.Errorf("%s requires -member", op)
		}
	default:
		if *key == "" {
			return fmt.Errorf("%s requires -key", op)
		}
	}

	c, err := client.New(strings.Split(*addrs, ","))
	if err != nil {
		return err
	}
	defer c.Close()
	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()

	switch op {
	case "inc":
		// pn-counter keys increment through the PN handle; the type is
		// the key's first path segment (or the whole key), matching
		// server.TypedKeyInitial.
		if prefix, _, _ := strings.Cut(*key, "/"); prefix == crdt.TypePNCounter {
			if err := c.PNCounter(*key).Inc(ctx, *n); err != nil {
				return err
			}
		} else if err := c.Counter(*key).Inc(ctx, *n); err != nil {
			return err
		}
		fmt.Println("ok")
	case "dec":
		if err := c.PNCounter(*key).Dec(ctx, *n); err != nil {
			return err
		}
		fmt.Println("ok")
	case "add":
		if err := c.Set(*key).Add(ctx, *elem); err != nil {
			return err
		}
		fmt.Println("ok")
	case "remove":
		if err := c.Set(*key).Remove(ctx, *elem); err != nil {
			return err
		}
		fmt.Println("ok")
	case "set":
		if err := c.Register(*key).Store(ctx, *value); err != nil {
			return err
		}
		fmt.Println("ok")
	case "get":
		st, info, err := c.Query(ctx, *key)
		if err != nil {
			return err
		}
		fmt.Printf("%v rtts=%d attempts=%d path=%v\n", st, info.RoundTrips, info.Attempts, info.Path)
	case "ping":
		start := time.Now()
		if err := c.Ping(ctx); err != nil {
			return err
		}
		fmt.Printf("pong (%s)\n", time.Since(start).Round(time.Microsecond))
	case "keys":
		keys, err := c.Keys(ctx)
		if err != nil {
			return err
		}
		for _, k := range keys {
			if k == "" {
				k = "(default)"
			}
			fmt.Println(k)
		}
	case "members":
		epoch, members, err := c.Members(ctx)
		if err != nil {
			return err
		}
		printMembers(epoch, members)
	case "member-add":
		epoch, members, err := c.MemberAdd(ctx, *member, *meshAddr, *clientAddr)
		if err != nil {
			return err
		}
		printMembers(epoch, members)
	case "member-remove":
		epoch, members, err := c.MemberRemove(ctx, *member)
		if err != nil {
			return err
		}
		printMembers(epoch, members)
	}
	return nil
}

func printMembers(epoch uint64, members []client.Member) {
	fmt.Printf("epoch %d, %d member(s):\n", epoch, len(members))
	for _, m := range members {
		addr := m.Addr
		if addr == "" {
			addr = "(no advertised client address)"
		}
		fmt.Printf("  %s\t%s\n", m.ID, addr)
	}
}

// plusThousand derives the default client-facing port: mesh port + 1000.
func plusThousand(listen string) (string, error) {
	host, port, err := net.SplitHostPort(listen)
	if err != nil {
		return "", fmt.Errorf("bad listen address %q: %w", listen, err)
	}
	p, err := strconv.Atoi(port)
	if err != nil {
		return "", fmt.Errorf("bad listen port %q", port)
	}
	return net.JoinHostPort(host, strconv.Itoa(p+1000)), nil
}
