package cluster

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"crdtsmr/internal/transport"
	"crdtsmr/internal/wire"
)

// TestOneRecordPerKey is the census gate of the shard's per-key state:
// the shard struct declares exactly one map keyed by object key (keys),
// and no method of the shard builds another map keyed by string, so
// everything the loop knows about a key lives in that key's record and
// is dropped with it.
func TestOneRecordPerKey(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	var fields []string
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range f.Decls {
			if st := shardStruct(decl); st != nil {
				for _, field := range st.Fields.List {
					if isStringMap(field.Type) {
						for _, id := range field.Names {
							fields = append(fields, id.Name)
						}
					}
				}
				continue
			}
			if fn, ok := decl.(*ast.FuncDecl); !ok || !isShardMethod(fn) {
				continue
			}
			ast.Inspect(decl, func(n ast.Node) bool {
				if isStringMap(n) && !isRecordMap(n.(*ast.MapType)) {
					t.Errorf("%s: a per-key map built in a shard method; per-key state belongs in keyState", fset.Position(n.Pos()))
				}
				return true
			})
		}
	}
	if !slices.Equal(fields, []string{"keys"}) {
		t.Errorf("shard's maps keyed by object key = %v, want exactly [keys]", fields)
	}
}

// shardStruct returns the field list of the shard type, if decl declares it.
func shardStruct(decl ast.Decl) *ast.StructType {
	gen, ok := decl.(*ast.GenDecl)
	if !ok || gen.Tok != token.TYPE {
		return nil
	}
	for _, spec := range gen.Specs {
		if ts := spec.(*ast.TypeSpec); ts.Name.Name == "shard" {
			st, _ := ts.Type.(*ast.StructType)
			return st
		}
	}
	return nil
}

// isShardMethod reports whether fn has a *shard receiver.
func isShardMethod(fn *ast.FuncDecl) bool {
	if fn.Recv == nil || len(fn.Recv.List) != 1 {
		return false
	}
	star, ok := fn.Recv.List[0].Type.(*ast.StarExpr)
	if !ok {
		return false
	}
	id, ok := star.X.(*ast.Ident)
	return ok && id.Name == "shard"
}

// isStringMap reports whether n is a map type keyed by string.
func isStringMap(n ast.Node) bool {
	m, ok := n.(*ast.MapType)
	if !ok {
		return false
	}
	id, ok := m.Key.(*ast.Ident)
	return ok && id.Name == "string"
}

// isRecordMap reports whether m is map[string]*keyState, the type of
// shard.keys.
func isRecordMap(m *ast.MapType) bool {
	star, ok := m.Value.(*ast.StarExpr)
	if !ok {
		return false
	}
	id, ok := star.X.(*ast.Ident)
	return ok && id.Name == "keyState"
}

// orderConn records the object key of every frame its node sends.
type orderConn struct {
	transport.Conn
	mu   sync.Mutex
	keys []string
}

func (c *orderConn) Send(to transport.NodeID, frame []byte) {
	if key, _, err := wire.UnpackEnvelope(frame); err == nil {
		c.mu.Lock()
		c.keys = append(c.keys, key)
		c.mu.Unlock()
	}
	c.Conn.Send(to, frame)
}

// firstSeen returns the recorded keys in order of first appearance.
func (c *orderConn) firstSeen() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []string
	for _, k := range c.keys {
		if !slices.Contains(out, k) {
			out = append(out, k)
		}
	}
	return out
}

// TestBatchedKeysFlushInEnqueueOrder: a batch flush starts its keys'
// protocol runs in the order the keys were first buffered, so the first
// frame for each key leaves the node in that order.
func TestBatchedKeysFlushInEnqueueOrder(t *testing.T) {
	mesh := transport.NewMesh()
	defer mesh.Close()
	cfg := testConfig(3)
	cfg.Shards = 1
	cfg.BatchInterval = time.Hour // the flush timer never fires on its own
	var rec *orderConn
	var nodes []*Node
	for _, id := range cfg.Members {
		n, err := NewNode(id, cfg, func(id transport.NodeID, h transport.Handler) transport.Conn {
			conn := mesh.Join(id, h)
			if id == "n1" {
				rec = &orderConn{Conn: conn}
				return rec
			}
			return conn
		})
		if err != nil {
			t.Fatal(err)
		}
		defer n.Close()
		nodes = append(nodes, n)
	}
	n1 := nodes[0]
	ctx := ctxWith(t, 10*time.Second)
	order := []string{"k07", "k02", "k11", "k00", "k09", "k04", "k10", "k01", "k06", "k03", "k08", "k05"}
	errs := make(chan error, len(order))
	for _, key := range order {
		go func() {
			_, err := n1.UpdateKey(ctx, key, incSelf(n1))
			errs <- err
		}()
		waitOnLoop(t, n1, key, func(s *shard) bool {
			ks := s.keys[key]
			return ks != nil && len(ks.updates) == 1
		})
	}
	s := n1.shardOf(DefaultKey)
	s.call(func() { s.flushBatches(false) })
	for range order {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	if got := rec.firstSeen(); !slices.Equal(got, order) {
		t.Fatalf("first frame per key in order %v, want enqueue order %v", got, order)
	}
}
