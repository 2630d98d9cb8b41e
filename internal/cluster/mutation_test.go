package cluster

import (
	"encoding/binary"
	"errors"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"crdtsmr/internal/crdt"
	"crdtsmr/internal/transport"
	"crdtsmr/internal/wire"
)

// typedConfig is testConfig(n) whose keys hold the type their first path
// segment names ("or-set/k" is an OR-Set), like the server's key rule.
func typedConfig(n int) Config {
	cfg := testConfig(n)
	cfg.InitialForKey = func(key string) crdt.State {
		prefix, _, _ := strings.Cut(key, "/")
		if s, err := crdt.New(prefix); err == nil {
			return s
		}
		return crdt.NewGCounter()
	}
	return cfg
}

// TestMutationTable applies every named mutation of every served type
// through Node.Mutate and checks the state a linearizable read returns.
func TestMutationTable(t *testing.T) {
	mesh := transport.NewMesh()
	defer mesh.Close()
	cl, err := New(mesh, typedConfig(3))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	ctx := ctxWith(t, 10*time.Second)
	n1, n2 := cl.Node("n1"), cl.Node("n2")

	uv := func(v uint64) []byte { return binary.AppendUvarint(nil, v) }
	// Rows run in order; rows on one key see the rows before them.
	rows := []struct {
		node            *Node
		key, mut        string
		arg             []byte
		want            string // the read state printed, a register's value
		wantObserveRTTs bool
	}{
		{n1, "g-counter/k", wire.MutInc, uv(5), "GCounter(5)", false},
		{n1, "pn-counter/k", wire.MutInc, uv(5), "PNCounter(5)", false},
		{n2, "pn-counter/k", wire.MutDec, uv(7), "PNCounter(-2)", false},
		{n1, "or-set/k", wire.MutAdd, []byte("x"), "ORSet[x]", false},
		{n1, "or-set/k", wire.MutAdd, []byte("y"), "ORSet[x y]", false},
		{n2, "or-set/k", wire.MutRemove, []byte("x"), "ORSet[y]", true},
		{n2, "or-set/k", wire.MutAdd, []byte("x"), "ORSet[x y]", false},
		{n1, "lww-register/k", wire.MutSet, []byte("v1"), "v1", false},
		{n2, "lww-register/k", wire.MutSet, []byte("v2"), "v2", false},
	}
	for i, r := range rows {
		typ, _, _ := strings.Cut(r.key, "/")
		_, rtts, err := r.node.Mutate(ctx, r.key, typ, r.mut, [][]byte{r.arg})
		if err != nil {
			t.Fatalf("row %d %s/%s: %v", i, typ, r.mut, err)
		}
		if (rtts > 0) != r.wantObserveRTTs {
			t.Fatalf("row %d %s/%s: observeRTTs = %d", i, typ, r.mut, rtts)
		}
		st, _, err := cl.Node("n3").QueryKey(ctx, r.key)
		if err != nil {
			t.Fatal(err)
		}
		got := fmt.Sprint(st)
		if reg, ok := st.(*crdt.LWWRegister); ok {
			got, _, _ = reg.Value()
		}
		if got != r.want {
			t.Fatalf("row %d %s/%s: read %s, want %s", i, typ, r.mut, got, r.want)
		}
	}
}

// TestMutationRejects covers the errors: a payload of the wrong type fails
// the update terminally and names both types, and a malformed mutation is
// ErrBadMutation before anything reaches the key.
func TestMutationRejects(t *testing.T) {
	mesh := transport.NewMesh()
	defer mesh.Close()
	cl, err := New(mesh, typedConfig(3))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	ctx := ctxWith(t, 10*time.Second)
	n := cl.Node("n1")

	// Wrong payload type: the function builds, the update fails.
	_, _, err = n.Mutate(ctx, "or-set/typed", crdt.TypeGCounter, wire.MutInc, [][]byte{{1}})
	if err == nil || errors.Is(err, ErrBadMutation) ||
		!strings.Contains(err.Error(), crdt.TypeORSet) || !strings.Contains(err.Error(), crdt.TypeGCounter) {
		t.Fatalf("g-counter inc on an or-set: %v, want a type error naming both types", err)
	}
	// An or-set remove observes first, so its type error comes before
	// submission.
	_, _, err = n.Mutate(ctx, "g-counter/typed", crdt.TypeORSet, wire.MutRemove, [][]byte{[]byte("x")})
	if err == nil || !strings.Contains(err.Error(), crdt.TypeORSet) || !strings.Contains(err.Error(), crdt.TypeGCounter) {
		t.Fatalf("or-set remove on a g-counter: %v, want a type error naming both types", err)
	}

	bad := []struct {
		name, typ, mut string
		args           [][]byte
		want           string
	}{
		{"unknown type", "g-set", wire.MutAdd, [][]byte{[]byte("x")}, "no mutations"},
		{"unknown mutation", crdt.TypeGCounter, wire.MutDec, [][]byte{{1}}, "unknown"},
		// The name is checked before the operands.
		{"unknown or-set mutation, no operand", crdt.TypeORSet, wire.MutInc, nil, "unknown"},
		{"missing operand", crdt.TypeGCounter, wire.MutInc, nil, "needs 1 operand"},
		{"missing or-set remove operand", crdt.TypeORSet, wire.MutRemove, nil, "needs 1 operand"},
		{"non-uvarint operand", crdt.TypePNCounter, wire.MutDec, [][]byte{{0x80}}, "not a uvarint"},
	}
	for _, b := range bad {
		key := b.typ + "/bad"
		_, _, err := n.Mutate(ctx, key, b.typ, b.mut, b.args)
		if !errors.Is(err, ErrBadMutation) || !strings.Contains(err.Error(), b.want) {
			t.Errorf("%s: err %v; want ErrBadMutation (%s)", b.name, err, b.want)
		}
		if slices.Contains(n.Keys(), key) {
			t.Errorf("%s: key %q was touched", b.name, key)
		}
	}
}

// TestMutationsBuiltOnlyInCluster is the census gate of the mutation
// table: no non-test file of the root package or internal/server holds a
// function literal of type func(State) (State, error). A front end names
// a mutation and Node.SubmitMutation builds its update function, so the
// semantics of each named mutation live in this package only.
func TestMutationsBuiltOnlyInCluster(t *testing.T) {
	var files []string
	for _, dir := range []string{"../..", "../server"} {
		matches, err := filepath.Glob(filepath.Join(dir, "*.go"))
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, matches...)
	}
	if len(files) == 0 {
		t.Fatal("no files to check")
	}
	fset := token.NewFileSet()
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if lit, ok := n.(*ast.FuncLit); ok && isUpdateType(lit.Type) {
				t.Errorf("%s: update function literal; build named mutations with cluster.Node.SubmitMutation", fset.Position(lit.Pos()))
			}
			return true
		})
	}
}

// isUpdateType reports whether ft is func(State) (State, error), with
// State named bare or package-qualified.
func isUpdateType(ft *ast.FuncType) bool {
	if ft.Params.NumFields() != 1 || ft.Results.NumFields() != 2 {
		return false
	}
	res := ft.Results.List
	second := res[len(res)-1].Type
	return isStateType(ft.Params.List[0].Type) && isStateType(res[0].Type) &&
		isIdent(second, "error")
}

func isStateType(e ast.Expr) bool {
	if sel, ok := e.(*ast.SelectorExpr); ok {
		return sel.Sel.Name == "State"
	}
	return isIdent(e, "State")
}

func isIdent(e ast.Expr, name string) bool {
	id, ok := e.(*ast.Ident)
	return ok && id.Name == name
}
