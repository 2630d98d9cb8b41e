package crdtsmr

import (
	"context"
	"strings"
	"testing"
	"time"
)

func testCtx(t *testing.T) context.Context {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	t.Cleanup(cancel)
	return ctx
}

func TestFacadeCounter(t *testing.T) {
	cl, err := NewLocalCluster(3, NewGCounter())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	ctx := testCtx(t)

	a := cl.Counter("n1")
	b := cl.Counter("n2")
	if err := a.Inc(ctx, 3); err != nil {
		t.Fatal(err)
	}
	if err := b.Inc(ctx, 4); err != nil {
		t.Fatal(err)
	}
	v, err := cl.Counter("n3").Value(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if v != 7 {
		t.Fatalf("value = %d, want 7", v)
	}
}

func TestFacadeSet(t *testing.T) {
	cl, err := NewLocalCluster(3, NewORSet())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	ctx := testCtx(t)

	s1 := cl.Set("n1")
	s2 := cl.Set("n2")
	if err := s1.Add(ctx, "alice"); err != nil {
		t.Fatal(err)
	}
	if err := s2.Add(ctx, "bob"); err != nil {
		t.Fatal(err)
	}
	if err := s1.Remove(ctx, "alice"); err != nil {
		t.Fatal(err)
	}
	got, err := cl.Set("n3").Elements(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0] != "bob" {
		t.Fatalf("elements = %v, want [bob]", got)
	}
}

// TestFacadeSetRemoveObserves: Set.Remove through a replica that has not
// merged an acknowledged add yet (its link from the adding replica is held)
// still removes it.
func TestFacadeSetRemoveObserves(t *testing.T) {
	cl, err := NewLocalCluster(3, NewORSet())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	ctx := testCtx(t)

	cl.mesh.Block("n1", "n2")
	if err := cl.Set("n1").Add(ctx, "alice"); err != nil {
		t.Fatal(err)
	}
	if err := cl.Set("n2").Remove(ctx, "alice"); err != nil {
		t.Fatal(err)
	}
	if got, err := cl.Set("n2").Elements(ctx); err != nil || len(got) != 0 {
		t.Fatalf("elements = %v, %v; want none", got, err)
	}
}

// TestFacadeSetReAddAfterRemove: an add through a fresh handle after a
// remove is acknowledged and stays visible; its tag is not one the remove
// already tombstoned.
func TestFacadeSetReAddAfterRemove(t *testing.T) {
	cl, err := NewLocalCluster(3, NewORSet())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	ctx := testCtx(t)

	if err := cl.Set("n1").Add(ctx, "x"); err != nil {
		t.Fatal(err)
	}
	if err := cl.Set("n1").Remove(ctx, "x"); err != nil {
		t.Fatal(err)
	}
	if err := cl.Set("n1").Add(ctx, "x"); err != nil {
		t.Fatal(err)
	}
	if got, err := cl.Set("n1").Elements(ctx); err != nil || len(got) != 1 || got[0] != "x" {
		t.Fatalf("elements = %v, %v; want [x]", got, err)
	}
}

func TestFacadeCrashRecover(t *testing.T) {
	cl, err := NewLocalCluster(3, NewGCounter())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	ctx := testCtx(t)

	ctr := cl.Counter("n1")
	if err := ctr.Inc(ctx, 1); err != nil {
		t.Fatal(err)
	}
	cl.Crash("n3")
	if err := ctr.Inc(ctx, 1); err != nil {
		t.Fatalf("update during minority crash: %v", err)
	}
	cl.Recover("n3")
	v, err := cl.Counter("n3").Value(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if v != 2 {
		t.Fatalf("value after recovery = %d, want 2", v)
	}
}

func TestFacadeTypeMismatch(t *testing.T) {
	cl, err := NewLocalCluster(3, NewORSet())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	ctx := testCtx(t)
	if err := cl.Counter("n1").Inc(ctx, 1); err == nil {
		t.Fatal("counter handle on a set payload should fail")
	}
}

func TestFacadeValidation(t *testing.T) {
	if _, err := NewLocalCluster(0, NewGCounter()); err == nil {
		t.Fatal("zero replicas accepted")
	}
	cl, err := NewLocalCluster(1, NewGCounter())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	ctx := testCtx(t)
	if err := cl.Update(ctx, "ghost", func(s State) (State, error) { return s, nil }); err == nil {
		t.Fatal("unknown replica accepted")
	}
	if _, _, err := cl.Query(ctx, "ghost"); err == nil {
		t.Fatal("unknown replica accepted for query")
	}
	if len(cl.NodeIDs()) != 1 {
		t.Fatal("node IDs wrong")
	}
}

func TestFacadeBatchingOption(t *testing.T) {
	cl, err := NewLocalCluster(3, NewGCounter(), WithBatching(2*time.Millisecond), WithNetworkDelay(10*time.Microsecond, 50*time.Microsecond), WithSeed(7))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	ctx := testCtx(t)
	ctr := cl.Counter("n2")
	for i := 0; i < 5; i++ {
		if err := ctr.Inc(ctx, 1); err != nil {
			t.Fatal(err)
		}
	}
	v, err := ctr.Value(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if v != 5 {
		t.Fatalf("value = %d, want 5", v)
	}
}

func TestFacadeObjectKeysIndependent(t *testing.T) {
	cl, err := NewLocalCluster(3, NewGCounter())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	ctx := testCtx(t)

	views := cl.Object("article/1").Counter("n1")
	likes := cl.Object("article/2").Counter("n2")
	if err := views.Inc(ctx, 5); err != nil {
		t.Fatal(err)
	}
	if err := likes.Inc(ctx, 2); err != nil {
		t.Fatal(err)
	}

	// Reads at other replicas see each key independently.
	v, err := cl.Object("article/1").Counter("n3").Value(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if v != 5 {
		t.Fatalf("article/1 = %d, want 5", v)
	}
	v, err = cl.Object("article/2").Counter("n1").Value(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if v != 2 {
		t.Fatalf("article/2 = %d, want 2", v)
	}

	// The default object is untouched by keyed traffic.
	v, err = cl.Counter("n1").Value(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if v != 0 {
		t.Fatalf("default object = %d, want 0", v)
	}
	if key := cl.Object("article/1").Key(); key != "article/1" {
		t.Fatalf("key = %q", key)
	}
}

func TestFacadeObjectMixedTypes(t *testing.T) {
	cl, err := NewLocalCluster(3, NewGCounter(), WithObjectInitial(func(key string) State {
		switch {
		case strings.HasPrefix(key, "set/"):
			return NewORSet()
		case strings.HasPrefix(key, "reg/"):
			return NewLWWRegister()
		default:
			return NewGCounter()
		}
	}))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	ctx := testCtx(t)

	if err := cl.Object("hits").Counter("n1").Inc(ctx, 1); err != nil {
		t.Fatal(err)
	}
	members := cl.Object("set/team").Set("n2")
	if err := members.Add(ctx, "alice"); err != nil {
		t.Fatal(err)
	}
	banner := cl.Object("reg/banner").Register("n3")
	if err := banner.Store(ctx, "hello"); err != nil {
		t.Fatal(err)
	}

	got, err := cl.Object("set/team").Set("n1").Elements(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0] != "alice" {
		t.Fatalf("set = %v", got)
	}
	val, ok, err := cl.Object("reg/banner").Register("n2").Load(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !ok || val != "hello" {
		t.Fatalf("register = %q ok=%t, want hello", val, ok)
	}
	// Wrong-typed handles fail cleanly instead of corrupting the payload.
	if err := cl.Object("set/team").Counter("n1").Inc(ctx, 1); err == nil {
		t.Fatal("counter handle on a set key should fail")
	}
}

func TestFacadeRegisterLastWriterWins(t *testing.T) {
	cl, err := NewLocalCluster(3, NewLWWRegister())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	ctx := testCtx(t)

	reg := cl.Object(DefaultKey).Register("n1")
	if _, ok, err := reg.Load(ctx); err != nil || ok {
		t.Fatalf("unwritten register: ok=%t err=%v", ok, err)
	}
	if err := reg.Store(ctx, "first"); err != nil {
		t.Fatal(err)
	}
	if err := cl.Object(DefaultKey).Register("n2").Store(ctx, "second"); err != nil {
		t.Fatal(err)
	}
	val, ok, err := cl.Object(DefaultKey).Register("n3").Load(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !ok || val != "second" {
		t.Fatalf("register = %q ok=%t, want second (later write wins)", val, ok)
	}
}

func TestFacadeKeysListing(t *testing.T) {
	cl, err := NewLocalCluster(3, NewGCounter())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	ctx := testCtx(t)

	if err := cl.Object("a").Counter("n1").Inc(ctx, 1); err != nil {
		t.Fatal(err)
	}
	if err := cl.Object("b").Counter("n1").Inc(ctx, 1); err != nil {
		t.Fatal(err)
	}
	keys := cl.Keys("n1")
	want := []string{DefaultKey, "a", "b"}
	if len(keys) != len(want) {
		t.Fatalf("keys = %q, want %q", keys, want)
	}
	for i := range want {
		if keys[i] != want[i] {
			t.Fatalf("keys = %q, want %q", keys, want)
		}
	}
}
