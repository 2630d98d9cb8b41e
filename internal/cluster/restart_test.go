package cluster

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"

	"crdtsmr/internal/crdt"
	"crdtsmr/internal/persist"
	"crdtsmr/internal/transport"
)

func incBy(replica string, n uint64) crdt.Update {
	return func(s crdt.State) (crdt.State, error) {
		return s.(*crdt.GCounter).Inc(replica, n), nil
	}
}

func durableCluster(t *testing.T, dataDir string, recover persist.RecoverPolicy) (*Cluster, *transport.Mesh) {
	t.Helper()
	mesh := transport.NewMesh(transport.WithSeed(7))
	cl, err := New(mesh, Config{
		Members:            []transport.NodeID{"n1", "n2", "n3"},
		Initial:            crdt.NewGCounter(),
		RetransmitInterval: 20 * time.Millisecond,
		DataDir:            dataDir,
		Recover:            recover,
	})
	if err != nil {
		mesh.Close()
		t.Fatal(err)
	}
	t.Cleanup(func() {
		cl.Close()
		mesh.Close()
	})
	return cl, mesh
}

// TestRestartAllNodesRecoversFromDiskAlone is the strongest recovery
// claim the in-process harness can make: after EVERY node crashes and
// restarts, all volatile state in the cluster is gone, so the values the
// restarted cluster serves can only have come from the snapshot files.
func TestRestartAllNodesRecoversFromDiskAlone(t *testing.T) {
	cl, _ := durableCluster(t, t.TempDir(), persist.RecoverStrict)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()

	ids := []transport.NodeID{"n1", "n2", "n3"}
	if _, err := cl.Node("n1").UpdateKey(ctx, "k1", incBy("n1", 3)); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Node("n2").UpdateKey(ctx, "k2", incBy("n2", 5)); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Node("n3").Update(ctx, incBy("n3", 1)); err != nil {
		t.Fatal(err)
	}

	for _, id := range ids {
		cl.Crash(id)
	}
	for _, id := range ids {
		if err := cl.Restart(id); err != nil {
			t.Fatalf("restart %s: %v", id, err)
		}
	}

	want := map[string]uint64{"k1": 3, "k2": 5, DefaultKey: 1}
	for _, id := range ids {
		for key, v := range want {
			s, _, err := cl.Node(id).QueryKey(ctx, key)
			if err != nil {
				t.Fatalf("query %q at %s after full restart: %v", key, id, err)
			}
			if got := s.(*crdt.GCounter).Value(); got != v {
				t.Fatalf("key %q at %s = %d after full restart, want %d", key, id, got, v)
			}
		}
		if errs := cl.Node(id).PersistErrors(); errs != 0 {
			t.Fatalf("%s reported %d persist errors", id, errs)
		}
	}
}

// TestRestartedNodeCatchesUpOnMissedUpdates: a node that was down while
// the majority kept committing must, after Restart, serve reads covering
// both its pre-crash snapshot and everything it missed.
func TestRestartedNodeCatchesUpOnMissedUpdates(t *testing.T) {
	cl, _ := durableCluster(t, t.TempDir(), persist.RecoverStrict)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()

	if _, err := cl.Node("n1").UpdateKey(ctx, "k", incBy("n1", 2)); err != nil {
		t.Fatal(err)
	}
	cl.Crash("n1")
	if _, err := cl.Node("n2").UpdateKey(ctx, "k", incBy("n2", 4)); err != nil {
		t.Fatal(err)
	}
	if err := cl.Restart("n1"); err != nil {
		t.Fatal(err)
	}
	s, _, err := cl.Node("n1").QueryKey(ctx, "k")
	if err != nil {
		t.Fatal(err)
	}
	if got := s.(*crdt.GCounter).Value(); got != 6 {
		t.Fatalf("restarted node read %d, want 6 (2 pre-crash + 4 missed)", got)
	}
}

// TestRestartRequiresDataDir: a volatile cluster cannot Restart — only
// Crash/Recover with retained memory.
func TestRestartRequiresDataDir(t *testing.T) {
	mesh := transport.NewMesh()
	defer mesh.Close()
	cl, err := New(mesh, Config{
		Members: []transport.NodeID{"n1", "n2", "n3"},
		Initial: crdt.NewGCounter(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if err := cl.Restart("n1"); err == nil {
		t.Fatal("Restart succeeded without a DataDir")
	}
	if err := cl.Restart("nope"); err == nil {
		t.Fatal("Restart of unknown node succeeded")
	}
}

// TestRestartCorruptSnapshotStrict: under the default strict policy a
// corrupted snapshot file must fail Restart with a typed error and leave
// the node refusing to serve — never silently up with less state than it
// promised a quorum it had.
func TestRestartCorruptSnapshotStrict(t *testing.T) {
	dataDir := t.TempDir()
	cl, _ := durableCluster(t, dataDir, persist.RecoverStrict)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()

	if _, err := cl.Node("n1").UpdateKey(ctx, "k", incBy("n1", 7)); err != nil {
		t.Fatal(err)
	}
	corruptSnapshot(t, filepath.Join(dataDir, "n1"), "k")

	cl.Crash("n1")
	err := cl.Restart("n1")
	if !errors.Is(err, persist.ErrCorrupt) {
		t.Fatalf("restart err = %v, want ErrCorrupt", err)
	}
	shortCtx, cancel2 := context.WithTimeout(ctx, time.Second)
	defer cancel2()
	if _, _, err := cl.Node("n1").QueryKey(shortCtx, "k"); !errors.Is(err, ErrUnavailable) {
		t.Fatalf("query on failed-restart node: %v, want ErrUnavailable", err)
	}
}

// TestRestartCorruptSnapshotIgnored: with the explicit ignore-corrupt
// policy the node comes up, the corrupted key starts fresh locally, and a
// quorum read still returns the true value (the other replicas hold it).
func TestRestartCorruptSnapshotIgnored(t *testing.T) {
	dataDir := t.TempDir()
	cl, _ := durableCluster(t, dataDir, persist.RecoverIgnoreCorrupt)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()

	if _, err := cl.Node("n1").UpdateKey(ctx, "k", incBy("n1", 7)); err != nil {
		t.Fatal(err)
	}
	corruptSnapshot(t, filepath.Join(dataDir, "n1"), "k")

	cl.Crash("n1")
	if err := cl.Restart("n1"); err != nil {
		t.Fatalf("ignore-corrupt restart failed: %v", err)
	}
	s, _, err := cl.Node("n1").QueryKey(ctx, "k")
	if err != nil {
		t.Fatal(err)
	}
	if got := s.(*crdt.GCounter).Value(); got != 7 {
		t.Fatalf("quorum read after ignore-corrupt restart = %d, want 7", got)
	}
}

// corruptSnapshot flips a byte in the middle of one key's snapshot file.
func corruptSnapshot(t *testing.T, nodeDir, key string) {
	t.Helper()
	st, err := persist.Open(nodeDir, persist.Options{})
	if err != nil {
		t.Fatal(err)
	}
	path := st.Path(key)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("snapshot for %q not on disk: %v", key, err)
	}
	data[len(data)/2] ^= 0xFF
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestPersistFailureWithholdsAcknowledgement: when a snapshot write
// fails, the node must not tell the client the update succeeded — the
// command times out (surfacing as uncertain at higher layers) and the
// failure is counted. Simulated by replacing the node's snapshot
// directory with a plain file, which defeats even a root process.
func TestPersistFailureWithholdsAcknowledgement(t *testing.T) {
	dataDir := t.TempDir()
	cl, _ := durableCluster(t, dataDir, persist.RecoverStrict)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()

	if _, err := cl.Node("n1").UpdateKey(ctx, "k", incBy("n1", 1)); err != nil {
		t.Fatal(err)
	}

	// Break n1's snapshot directory: every subsequent save fails.
	n1dir := filepath.Join(dataDir, "n1")
	if err := os.RemoveAll(n1dir); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(n1dir, []byte("not a directory"), 0o644); err != nil {
		t.Fatal(err)
	}

	shortCtx, cancel2 := context.WithTimeout(ctx, 300*time.Millisecond)
	defer cancel2()
	if _, err := cl.Node("n1").UpdateKey(shortCtx, "k", incBy("n1", 1)); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("update with broken disk returned %v, want deadline exceeded (withheld ack)", err)
	}
	if errs := cl.Node("n1").PersistErrors(); errs == 0 {
		t.Fatal("persist failure not counted")
	}
}

// TestRestartPreservesTypedKeys: keys of different payload types restore
// with their types intact (the snapshot embeds the self-describing
// marshal).
func TestRestartPreservesTypedKeys(t *testing.T) {
	mesh := transport.NewMesh(transport.WithSeed(9))
	defer mesh.Close()
	cl, err := New(mesh, Config{
		Members: []transport.NodeID{"n1", "n2", "n3"},
		Initial: crdt.NewGCounter(),
		InitialForKey: func(key string) crdt.State {
			if key == "set" {
				return crdt.NewORSet()
			}
			return crdt.NewGCounter()
		},
		RetransmitInterval: 20 * time.Millisecond,
		DataDir:            t.TempDir(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()

	if _, err := cl.Node("n1").UpdateKey(ctx, "set", func(s crdt.State) (crdt.State, error) {
		return s.(*crdt.ORSet).Add("alice", "n1", 1), nil
	}); err != nil {
		t.Fatal(err)
	}
	for _, id := range []transport.NodeID{"n1", "n2", "n3"} {
		cl.Crash(id)
	}
	for _, id := range []transport.NodeID{"n1", "n2", "n3"} {
		if err := cl.Restart(id); err != nil {
			t.Fatal(err)
		}
	}
	s, _, err := cl.Node("n2").QueryKey(ctx, "set")
	if err != nil {
		t.Fatal(err)
	}
	if !s.(*crdt.ORSet).Contains("alice") {
		t.Fatal("or-set key lost its element across a full restart")
	}
}
