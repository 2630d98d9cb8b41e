package crdt

import (
	"fmt"
	"sort"
)

// The codec registry maps payload type names to factories so that payloads
// can be reconstructed from the self-describing wire format produced by
// Marshal. It is a fixed table of exactly the types the server serves.

// Unmarshaler is implemented by payload types that can decode themselves
// from the bytes produced by their MarshalBinary. Factories in the registry
// produce values implementing both State and Unmarshaler.
type Unmarshaler interface {
	UnmarshalBinary(data []byte) error
}

// Registered type names for the payload types.
const (
	TypeGCounter    = "g-counter"
	TypePNCounter   = "pn-counter"
	TypeLWWRegister = "lww-register"
	TypeORSet       = "or-set"
)

// factories maps each registered name to a constructor of its bottom
// element; every concrete type it returns implements Unmarshaler.
var factories = map[string]func() State{
	TypeGCounter:    func() State { return NewGCounter() },
	TypePNCounter:   func() State { return NewPNCounter() },
	TypeLWWRegister: func() State { return NewLWWRegister() },
	TypeORSet:       func() State { return NewORSet() },
}

// New returns a fresh zero-value payload of the named registered type.
func New(name string) (State, error) {
	factory, ok := factories[name]
	if !ok {
		return nil, fmt.Errorf("crdt: unregistered payload type %q", name)
	}
	return factory(), nil
}

// Names returns the names of every registered payload type, sorted. It is
// used by the property and fuzz tests to sweep the full registry and by
// tooling that enumerates available payload types.
func Names() []string {
	names := make([]string, 0, len(factories))
	for name := range factories {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// Marshal encodes a state in the self-describing wire format
// [name][payload] used by the replication protocols.
func Marshal(s State) ([]byte, error) {
	payload, err := s.MarshalBinary()
	if err != nil {
		return nil, fmt.Errorf("crdt: marshal %s: %w", s.TypeName(), err)
	}
	e := newEncBuf(len(payload) + len(s.TypeName()) + 2)
	e.str(s.TypeName())
	e.raw(payload)
	return e.bytes(), nil
}

// Unmarshal decodes a state previously encoded with Marshal.
func Unmarshal(data []byte) (State, error) {
	d := newDecBuf(data)
	name, err := d.str()
	if err != nil {
		return nil, fmt.Errorf("crdt: unmarshal type name: %w", err)
	}
	payload, err := d.raw()
	if err != nil {
		return nil, fmt.Errorf("crdt: unmarshal %s payload: %w", name, err)
	}
	if err := d.done(); err != nil {
		return nil, err
	}
	s, err := New(name)
	if err != nil {
		return nil, err
	}
	if err := s.(Unmarshaler).UnmarshalBinary(payload); err != nil {
		return nil, fmt.Errorf("crdt: unmarshal %s: %w", name, err)
	}
	return s, nil
}
