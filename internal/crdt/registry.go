package crdt

import (
	"fmt"
	"slices"
	"sort"
)

// The codec registry maps payload type names to factories so that payloads
// can be reconstructed from the self-describing wire format produced by
// Marshal. It is a fixed table of exactly the types the server serves.

// Unmarshaler is implemented by payload types that can decode themselves
// from the bytes produced by their AppendBinary. UnmarshalBinary copies
// out everything the decoded state keeps: it never aliases data. Factories
// in the registry produce values implementing both State and Unmarshaler.
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
// [name][payload] used by the replication protocols: one exactly sized
// buffer, the payload appended in place.
func Marshal(s State) ([]byte, error) {
	n := s.binaryLen()
	return appendMarshal(make([]byte, 0, marshaledLen(s.TypeName(), n)), s, n)
}

// AppendMarshal appends Marshal's encoding of s to b, growing b at most
// once, so a caller encodes the state straight into its own frame. On
// error it returns b unchanged.
func AppendMarshal(b []byte, s State) ([]byte, error) {
	return appendMarshal(b, s, s.binaryLen())
}

// MarshaledLen returns len(Marshal(s)) without encoding s: for an ORSet,
// from the sizes its chunks keep.
func MarshaledLen(s State) int { return marshaledLen(s.TypeName(), s.binaryLen()) }

func marshaledLen(name string, n int) int { return strLen(name) + uvarintLen(n) + n }

// appendMarshal is the one encoder: the type name, the payload length n
// (s.binaryLen()), then the payload.
func appendMarshal(b []byte, s State, n int) ([]byte, error) {
	name := s.TypeName()
	e := encBuf{b: slices.Grow(b, marshaledLen(name, n))}
	e.str(name)
	e.uvarint(uint64(n))
	out, err := s.AppendBinary(e.b)
	if err != nil {
		return b, fmt.Errorf("crdt: marshal %s: %w", name, err)
	}
	if got := len(out) - len(e.b); got != n {
		return b, fmt.Errorf("crdt: marshal %s: payload is %d bytes, sized %d", name, got, n)
	}
	return out, nil
}

// Unmarshal decodes a state previously encoded with Marshal. The payload
// is handed to the type's UnmarshalBinary uncopied; every type copies out
// what it keeps, so data may be reused once Unmarshal returns.
func Unmarshal(data []byte) (State, error) {
	d := newDecBuf(data)
	name, err := d.span()
	if err != nil {
		return nil, fmt.Errorf("crdt: unmarshal type name: %w", err)
	}
	payload, err := d.span()
	if err != nil {
		return nil, fmt.Errorf("crdt: unmarshal %s payload: %w", name, err)
	}
	if err := d.done(); err != nil {
		return nil, err
	}
	factory, ok := factories[string(name)] // no string is allocated for the lookup
	if !ok {
		return nil, fmt.Errorf("crdt: unregistered payload type %q", name)
	}
	s := factory()
	if err := s.(Unmarshaler).UnmarshalBinary(payload); err != nil {
		return nil, fmt.Errorf("crdt: unmarshal %s: %w", name, err)
	}
	return s, nil
}
