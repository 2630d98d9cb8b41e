package server

import (
	"context"
	"encoding/binary"
	"slices"
	"testing"

	"crdtsmr/internal/cluster"
	"crdtsmr/internal/crdt"
	"crdtsmr/internal/transport"
	"crdtsmr/internal/wire"
)

// TestEveryRegisteredTypeIsServed is the type census: a payload type is
// registered only if the mutation table can change it. A type added to the
// codec registry without a served mutation, or a served type dropped from
// it, fails here.
func TestEveryRegisteredTypeIsServed(t *testing.T) {
	want := []string{crdt.TypeGCounter, crdt.TypeLWWRegister, crdt.TypeORSet, crdt.TypePNCounter}
	if got := crdt.Names(); !slices.Equal(got, want) {
		t.Fatalf("crdt.Names() = %v, want %v", got, want)
	}

	mesh := transport.NewMesh(transport.WithSeed(1))
	defer mesh.Close()
	cl, err := cluster.New(mesh, cluster.Config{
		Members:       []transport.NodeID{"n1"},
		Initial:       crdt.NewGCounter(),
		InitialForKey: TypedKeyInitial(crdt.TypeGCounter),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	s := New(cl.Node("n1"), Options{})
	defer s.Close()

	// Remove comes last: it is the one mutation that queries before it
	// writes, and every type that has it has add as well.
	mutations := []string{wire.MutInc, wire.MutDec, wire.MutAdd, wire.MutSet, wire.MutRemove}
	operand := binary.AppendUvarint(nil, 1)
	for _, name := range crdt.Names() {
		served := false
		for _, mut := range mutations {
			req := &wire.Request{Key: name + "/census", CRDTType: name, Mutation: mut, Args: [][]byte{operand}}
			if _, _, err := s.updateFor(context.Background(), req); err == nil {
				served = true
				break
			}
		}
		if !served {
			t.Errorf("registered type %q accepts no mutation", name)
		}
	}

	// A deleted type's name is an ordinary key prefix now: it holds the
	// default payload.
	initial := TypedKeyInitial(crdt.TypeGCounter)("g-set/x")
	if _, ok := initial.(*crdt.GCounter); !ok {
		t.Fatalf(`"g-set/x" holds %T, want *crdt.GCounter`, initial)
	}
}
