package server_test

// End-to-end online membership change over the network path: the
// members/member-add/member-remove admin commands, the joiner's gating
// at the client protocol level, and the client's member-list refresh.

import (
	"context"
	"errors"
	"fmt"
	"net"
	"testing"
	"time"

	"crdtsmr/client"
	"crdtsmr/internal/cluster"
	"crdtsmr/internal/core"
	"crdtsmr/internal/crdt"
	"crdtsmr/internal/server"
	"crdtsmr/internal/transport"
)

// TestMembershipAdmin grows a served 3-replica cluster to 4 and back to
// 3 through the admin protocol alone, with a client following the
// member list.
func TestMembershipAdmin(t *testing.T) {
	mesh := transport.NewMesh(transport.WithSeed(7))
	defer mesh.Close()
	ids := []transport.NodeID{"n1", "n2", "n3"}
	cfg := cluster.Config{
		Members:            ids,
		Initial:            crdt.NewGCounter(),
		InitialForKey:      server.TypedKeyInitial(crdt.TypeGCounter),
		Options:            core.DefaultOptions(),
		RetransmitInterval: 20 * time.Millisecond,
	}
	cl, err := cluster.New(mesh, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	// Listen first so every server can be given the full ID→client-addr
	// registry (the way crdtsmrd provisions it from -peers).
	all := []transport.NodeID{"n1", "n2", "n3", "n4"}
	lns := make(map[transport.NodeID]net.Listener, len(all))
	memberAddrs := make(map[string]string, len(all))
	for _, id := range all {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[id] = ln
		memberAddrs[string(id)] = ln.Addr().String()
	}
	opts := server.Options{RequestTimeout: 5 * time.Second, MemberAddrs: memberAddrs}
	var servers []*server.Server
	startServer := func(id transport.NodeID) {
		srv := server.New(cl.Node(id), opts)
		servers = append(servers, srv)
		go func() { _ = srv.Serve(lns[id]) }()
	}
	for _, id := range ids {
		startServer(id)
	}
	defer func() {
		for _, srv := range servers {
			_ = srv.Close()
		}
	}()

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	c, err := client.New([]string{memberAddrs["n1"], memberAddrs["n2"], memberAddrs["n3"]},
		client.WithRequestTimeout(5*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if err := c.Counter("views").Inc(ctx, 5); err != nil {
		t.Fatal(err)
	}
	epoch, members, err := c.Members(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if epoch != 0 || len(members) != 3 {
		t.Fatalf("initial config: epoch %d with %d members, want 0 with 3", epoch, len(members))
	}
	for _, m := range members {
		if m.Addr != memberAddrs[m.ID] {
			t.Fatalf("member %s advertises %q, want %q", m.ID, m.Addr, memberAddrs[m.ID])
		}
	}

	// The joiner: a node outside the member set, already serving the
	// client protocol, refusing commands until reconfigured in.
	if _, err := cl.AddNode("n4", cfg); err != nil {
		t.Fatal(err)
	}
	startServer("n4")
	joiner, err := client.New([]string{memberAddrs["n4"]},
		client.WithRequestTimeout(2*time.Second),
		client.WithRetryPolicy(client.RetryPolicy{MaxAttempts: 2, Backoff: time.Millisecond, MaxBackoff: 2 * time.Millisecond}))
	if err != nil {
		t.Fatal(err)
	}
	defer joiner.Close()
	if _, err := joiner.Counter("views").Value(ctx); !errors.Is(err, client.ErrUnavailable) {
		t.Fatalf("joiner served a read before being reconfigured in: %v", err)
	}

	epoch, members, err = c.MemberAdd(ctx, "n4", "", memberAddrs["n4"])
	if err != nil {
		t.Fatalf("member-add: %v", err)
	}
	if epoch != 1 || len(members) != 4 {
		t.Fatalf("after member-add: epoch %d with %d members, want 1 with 4", epoch, len(members))
	}
	// The commit needs a joint quorum, not everyone: wait until every
	// member answers from the new epoch, or the round-robin client may put
	// the next verb to a replica that still judges it against the old view.
	waitEpoch(ctx, t, 1, memberAddrs["n1"], memberAddrs["n2"], memberAddrs["n3"], memberAddrs["n4"])
	if _, _, err := c.MemberAdd(ctx, "n4", "", ""); err == nil {
		t.Fatal("member-add of an existing member succeeded")
	}

	if _, err := c.RefreshMembers(ctx); err != nil {
		t.Fatalf("refresh members: %v", err)
	}
	if got := c.Addrs(); len(got) != 4 {
		t.Fatalf("client follows %d endpoints after refresh, want 4 (%v)", len(got), got)
	}

	// The joint-quorum commit can finish without the joiner's own ACK, so
	// wait for the new epoch to reach it; then the bootstrap state must
	// already be there — the reconfiguration round carried it.
	waitValue(ctx, t, joiner, "views", 5, "joiner after member-add")

	epoch, members, err = c.MemberRemove(ctx, "n1")
	if err != nil {
		t.Fatalf("member-remove: %v", err)
	}
	if epoch != 2 || len(members) != 3 {
		t.Fatalf("after member-remove: epoch %d with %d members, want 2 with 3", epoch, len(members))
	}
	for _, m := range members {
		if m.ID == "n1" {
			t.Fatal("n1 still in the member list after member-remove")
		}
	}
	waitEpoch(ctx, t, 2, memberAddrs["n2"], memberAddrs["n3"], memberAddrs["n4"])
	if _, _, err := c.MemberRemove(ctx, "nope"); err == nil {
		t.Fatal("member-remove of a non-member succeeded")
	}

	if _, err := c.RefreshMembers(ctx); err != nil {
		t.Fatalf("refresh after remove: %v", err)
	}
	for _, a := range c.Addrs() {
		if a == memberAddrs["n1"] {
			t.Fatal("client still dials the removed member after refresh")
		}
	}
	if err := c.Counter("views").Inc(ctx, 1); err != nil {
		t.Fatalf("update after shrink: %v", err)
	}
	waitValue(ctx, t, c, "views", 6, "survivors after shrink")
}

// waitEpoch polls the members verb on each address until every one of them
// answers from the given epoch.
func waitEpoch(ctx context.Context, t *testing.T, epoch uint64, addrs ...string) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for _, addr := range addrs {
		c, err := client.New([]string{addr}, client.WithRequestTimeout(2*time.Second))
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		for {
			got, _, err := c.Members(ctx)
			if err == nil && got == epoch {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("%s: epoch %d, %v; want epoch %d", addr, got, err, epoch)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
}

// waitValue polls the counter until it reads want, riding out the window
// where the answering replica has not yet adopted the epoch that makes
// it (or keeps it) a member.
func waitValue(ctx context.Context, t *testing.T, c *client.Client, key string, want uint64, what string) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		v, err := c.Counter(key).Value(ctx)
		if err == nil && v == want {
			return
		}
		if err == nil {
			err = fmt.Errorf("value %d, want %d", v, want)
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s: %v", what, err)
		}
		time.Sleep(5 * time.Millisecond)
	}
}
