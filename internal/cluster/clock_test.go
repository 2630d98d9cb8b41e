package cluster

import (
	"context"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"crdtsmr/internal/transport"
)

// TestClocksOwnedByShardLoop is the census gate of the runtime's clock
// seam: outside shard.loop, no non-test file of the package starts a
// timer (time.AfterFunc, time.NewTimer, time.NewTicker or time.After).
// Every clock a node runs is one of the two each shard loop owns, the
// retransmit tick and the batch flush; a per-request timer, or one that
// posts to the loop from its own goroutine, fails here.
func TestClocksOwnedByShardLoop(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	timers := map[string]bool{"AfterFunc": true, "NewTimer": true, "NewTicker": true, "After": true}
	fset := token.NewFileSet()
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range f.Decls {
			if isShardLoop(decl) {
				continue
			}
			ast.Inspect(decl, func(n ast.Node) bool {
				sel, ok := n.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				if x, ok := sel.X.(*ast.Ident); ok && x.Name == "time" && timers[sel.Sel.Name] {
					t.Errorf("%s: time.%s outside shard.loop; the shard loop owns every clock", fset.Position(sel.Pos()), sel.Sel.Name)
				}
				return true
			})
		}
	}
}

// isShardLoop reports whether decl is the method (*shard).loop.
func isShardLoop(decl ast.Decl) bool {
	fn, ok := decl.(*ast.FuncDecl)
	if !ok || fn.Name.Name != "loop" || fn.Recv == nil || len(fn.Recv.List) != 1 {
		return false
	}
	star, ok := fn.Recv.List[0].Type.(*ast.StarExpr)
	if !ok {
		return false
	}
	id, ok := star.X.(*ast.Ident)
	return ok && id.Name == "shard"
}

// waitOnLoop polls cond on the loop of key's shard until it holds: a
// loop-synchronized wait where a sleep could only guess.
func waitOnLoop(t *testing.T, n *Node, key string, cond func(s *shard) bool) {
	t.Helper()
	s := n.shardOf(key)
	deadline := time.Now().Add(5 * time.Second)
	for {
		held := false
		if !s.call(func() { held = cond(s) }) {
			t.Fatal("node stopped while waiting on its loop")
		}
		if held {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("loop condition never held")
		}
		runtime.Gosched()
	}
}

// TestIdleTicksSendNothing: ops that finish within one retransmit
// interval leave nothing for the shard ticks to re-drive, so once the
// traffic they caused has settled, three idle intervals send no frame.
func TestIdleTicksSendNothing(t *testing.T) {
	mesh := transport.NewMesh()
	defer mesh.Close()
	cfg := testConfig(3)
	cfg.RetransmitInterval = 50 * time.Millisecond
	c, err := New(mesh, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := ctxWith(t, 10*time.Second)
	for i, n := range c.Nodes() {
		for j := 0; j < 4; j++ {
			key := fmt.Sprintf("k%d", (i+j)%5)
			if _, err := n.UpdateKey(ctx, key, incSelf(n)); err != nil {
				t.Fatal(err)
			}
			if _, _, err := n.QueryKey(ctx, key); err != nil {
				t.Fatal(err)
			}
		}
	}
	settled := waitSettled(t, c, mesh)
	<-time.After(3 * cfg.RetransmitInterval)
	if st := mesh.Stats(); st.Sent != settled {
		t.Fatalf("three idle intervals sent %d frames, want 0", st.Sent-settled)
	}
}

// waitSettled waits until no frame is in transit, no shard of any node
// has a request in flight or an event queued, and the frame count holds
// still across three polls; it returns that count.
func waitSettled(t *testing.T, c *Cluster, mesh *transport.Mesh) uint64 {
	t.Helper()
	poll := time.NewTicker(2 * time.Millisecond)
	defer poll.Stop()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	last, still := ^uint64(0), 0
	for still < 3 {
		select {
		case <-poll.C:
		case <-ctx.Done():
			t.Fatal("the cluster never settled")
		}
		st := mesh.Stats()
		quiet := st.Sent == st.Delivered+st.Dropped
		for _, n := range c.Nodes() {
			for _, s := range n.shards {
				s.call(func() { quiet = quiet && len(s.busy) == 0 && len(s.events) == 0 })
			}
		}
		if quiet && st.Sent == last {
			still++
		} else {
			still = 0
		}
		last = st.Sent
	}
	return last
}
