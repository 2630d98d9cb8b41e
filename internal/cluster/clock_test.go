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

// TestClocksOwnedByShardLoop is the census gate of the runtime's clocks:
// every clock a node runs is owned by its driver. Outside the methods of
// loopDriver, whose shard loop owns the retransmit tick and the batch
// flush and whose now stamps mutations, no non-test file of the package
// starts a timer (time.AfterFunc, time.NewTimer, time.NewTicker,
// time.After, time.Tick) or reads the wall clock (time.Now, time.Since,
// time.Until, time.Sleep). Every other function also runs in a stepped
// node, whose only clock is its Clock, so a per-request timer, one that
// posts to the loop from its own goroutine, or a wall-clock read leaking
// into stepped runs fails here.
func TestClocksOwnedByShardLoop(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	clocks := map[string]bool{"AfterFunc": true, "NewTimer": true, "NewTicker": true, "After": true, "Tick": true,
		"Now": true, "Since": true, "Until": true, "Sleep": true}
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
			if receiverName(decl) == "loopDriver" {
				continue
			}
			ast.Inspect(decl, func(n ast.Node) bool {
				sel, ok := n.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				if x, ok := sel.X.(*ast.Ident); ok && x.Name == "time" && clocks[sel.Sel.Name] {
					t.Errorf("%s: time.%s outside loopDriver; the driver owns every clock", fset.Position(sel.Pos()), sel.Sel.Name)
				}
				return true
			})
		}
	}
}

// receiverName returns the receiver type of a method declaration, or ""
// for any other declaration.
func receiverName(decl ast.Decl) string {
	fn, ok := decl.(*ast.FuncDecl)
	if !ok || fn.Recv == nil || len(fn.Recv.List) != 1 {
		return ""
	}
	typ := fn.Recv.List[0].Type
	if star, ok := typ.(*ast.StarExpr); ok {
		typ = star.X
	}
	if id, ok := typ.(*ast.Ident); ok {
		return id.Name
	}
	return ""
}

// queue returns the event queue of s under the loop driver.
func (s *shard) queue() chan nodeEvent { return s.n.drv.(*loopDriver).lanes[s.idx].events }

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
				s.call(func() { quiet = quiet && len(s.busy) == 0 && len(s.queue()) == 0 })
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
