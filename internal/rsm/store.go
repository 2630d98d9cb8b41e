package rsm

import (
	"fmt"
	"sort"
	"sync"

	"crdtsmr/internal/wire"
)

// Command opcodes. The protocol shootout drives every log-based baseline
// through one Store holding named counters and named sets, so all
// protocols replicate the same workload. The byte values are fixed: they
// are in every encoded log entry, and 1 and 2 are retired.
const (
	opNoop    byte = 3
	opIncKey  byte = 4 // key, varint delta
	opReadKey byte = 5 // key
	opAddKey  byte = 6 // key, element
	opCardKey byte = 7 // key
)

// EncodeNoop builds a no-op command (used by leaders to commit entries
// from previous terms and to keep heartbeats uniform).
func EncodeNoop() []byte { return []byte{opNoop} }

// DecodeValue parses the result of a read command.
func DecodeValue(result []byte) (int64, error) {
	r := wire.NewReader(result)
	v := r.Varint()
	if err := r.Done(); err != nil {
		return 0, fmt.Errorf("rsm: bad read result: %w", err)
	}
	return v, nil
}

// Command is the decoded form of a state-machine command. Op is one of the
// package opcodes; Key/Elem/Delta are filled per opcode.
type Command struct {
	Op    byte
	Key   string
	Elem  string
	Delta int64
}

// DecodeCommand parses an encoded command strictly: trailing bytes or a
// truncated field are errors. Apply implementations treat undecodable
// commands as no-ops, so a bad command can never diverge replicas.
func DecodeCommand(cmd []byte) (Command, error) {
	if len(cmd) == 0 {
		return Command{}, fmt.Errorf("rsm: empty command")
	}
	r := wire.NewReader(cmd)
	c := Command{Op: r.Byte()}
	switch c.Op {
	case opNoop:
	case opIncKey:
		c.Key = r.Str()
		c.Delta = r.Varint()
	case opReadKey, opCardKey:
		c.Key = r.Str()
	case opAddKey:
		c.Key = r.Str()
		c.Elem = r.Str()
	default:
		return Command{}, fmt.Errorf("rsm: unknown opcode %d", c.Op)
	}
	if err := r.Done(); err != nil {
		return Command{}, fmt.Errorf("rsm: bad command: %w", err)
	}
	return c, nil
}

// IsRead reports whether the command is effect-free (a read). Reads may be
// served outside the log (e.g. from a leader lease), so replica applied
// logs are only comparable after filtering them out.
func (c Command) IsRead() bool {
	return c.Op == opReadKey || c.Op == opCardKey
}

// Encode is the inverse of DecodeCommand.
func (c Command) Encode() []byte {
	w := wire.NewWriter(2 + len(c.Key) + len(c.Elem) + 10)
	w.Byte(c.Op)
	switch c.Op {
	case opIncKey:
		w.Str(c.Key)
		w.Varint(c.Delta)
	case opReadKey, opCardKey:
		w.Str(c.Key)
	case opAddKey:
		w.Str(c.Key)
		w.Str(c.Elem)
	}
	return w.Bytes()
}

// EncodeIncKey builds an increment command against a named counter.
func EncodeIncKey(key string, delta int64) []byte {
	return Command{Op: opIncKey, Key: key, Delta: delta}.Encode()
}

// EncodeReadKey builds a read command against a named counter. The read
// rides the log, so its result is the counter's value at its position
// there: linearizable, as in the paper's Raft baseline.
func EncodeReadKey(key string) []byte {
	return Command{Op: opReadKey, Key: key}.Encode()
}

// EncodeAddKey builds an add-element command against a named set.
func EncodeAddKey(key, elem string) []byte {
	return Command{Op: opAddKey, Key: key, Elem: elem}.Encode()
}

// EncodeCardKey builds a cardinality read against a named set.
func EncodeCardKey(key string) []byte {
	return Command{Op: opCardKey, Key: key}.Encode()
}

// Store is the replicated state machine: named int64 counters plus named
// string sets. It is safe for concurrent use; the log-based protocols
// apply from a single goroutine but tests may read concurrently.
type Store struct {
	mu       sync.Mutex
	counters map[string]int64
	sets     map[string]map[string]struct{}
}

var _ StateMachine = (*Store)(nil)

// NewStore returns an empty store.
func NewStore() *Store {
	return &Store{
		counters: make(map[string]int64),
		sets:     make(map[string]map[string]struct{}),
	}
}

// CounterValue returns the named counter (zero if absent).
func (s *Store) CounterValue(key string) int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.counters[key]
}

// Card returns the named set's cardinality (zero if absent).
func (s *Store) Card(key string) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.sets[key])
}

// Apply implements StateMachine. Undecodable commands are deterministic
// no-ops with a nil result.
func (s *Store) Apply(cmd []byte) []byte {
	c, err := DecodeCommand(cmd)
	if err != nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	switch c.Op {
	case opIncKey:
		s.counters[c.Key] += c.Delta
		return nil
	case opReadKey:
		w := wire.NewWriter(10)
		w.Varint(s.counters[c.Key])
		return w.Bytes()
	case opAddKey:
		set, ok := s.sets[c.Key]
		if !ok {
			set = make(map[string]struct{})
			s.sets[c.Key] = set
		}
		set[c.Elem] = struct{}{}
		return nil
	case opCardKey:
		w := wire.NewWriter(10)
		w.Varint(int64(len(s.sets[c.Key])))
		return w.Bytes()
	default: // opNoop
		return nil
	}
}

// Snapshot implements StateMachine. The encoding is canonical — keys and
// elements are sorted — so equal states produce byte-equal snapshots.
func (s *Store) Snapshot() []byte {
	s.mu.Lock()
	defer s.mu.Unlock()
	w := wire.NewWriter(64)
	ckeys := make([]string, 0, len(s.counters))
	for k := range s.counters {
		ckeys = append(ckeys, k)
	}
	sort.Strings(ckeys)
	w.Uvarint(uint64(len(ckeys)))
	for _, k := range ckeys {
		w.Str(k)
		w.Varint(s.counters[k])
	}
	skeys := make([]string, 0, len(s.sets))
	for k := range s.sets {
		skeys = append(skeys, k)
	}
	sort.Strings(skeys)
	w.Uvarint(uint64(len(skeys)))
	for _, k := range skeys {
		w.Str(k)
		set := s.sets[k]
		elems := make([]string, 0, len(set))
		for e := range set {
			elems = append(elems, e)
		}
		sort.Strings(elems)
		w.Uvarint(uint64(len(elems)))
		for _, e := range elems {
			w.Str(e)
		}
	}
	return w.Bytes()
}

// Restore implements StateMachine.
func (s *Store) Restore(snapshot []byte) error {
	r := wire.NewReader(snapshot)
	counters := make(map[string]int64)
	for i, n := 0, int(r.Uvarint()); i < n && r.Err() == nil; i++ {
		k := r.Str()
		counters[k] = r.Varint()
	}
	sets := make(map[string]map[string]struct{})
	for i, n := 0, int(r.Uvarint()); i < n && r.Err() == nil; i++ {
		k := r.Str()
		set := make(map[string]struct{})
		for j, m := 0, int(r.Uvarint()); j < m && r.Err() == nil; j++ {
			set[r.Str()] = struct{}{}
		}
		sets[k] = set
	}
	if err := r.Done(); err != nil {
		return fmt.Errorf("rsm: bad store snapshot: %w", err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.counters, s.sets = counters, sets
	return nil
}

// Recorder wraps a StateMachine and records every applied command, so
// tests can assert that replicas of a log-based protocol applied identical
// command sequences (the "same seeds, identical decided values" property).
type Recorder struct {
	mu    sync.Mutex
	inner StateMachine
	log   []string
}

var _ StateMachine = (*Recorder)(nil)

// NewRecorder wraps sm.
func NewRecorder(sm StateMachine) *Recorder { return &Recorder{inner: sm} }

// Apply implements StateMachine, recording cmd before delegating.
func (r *Recorder) Apply(cmd []byte) []byte {
	r.mu.Lock()
	r.log = append(r.log, string(cmd))
	r.mu.Unlock()
	return r.inner.Apply(cmd)
}

// Snapshot implements StateMachine.
func (r *Recorder) Snapshot() []byte { return r.inner.Snapshot() }

// Restore implements StateMachine. The applied log is not rewound: a
// restore means the replica skipped entries via state transfer, which the
// prefix-compatibility tests account for by avoiding compaction.
func (r *Recorder) Restore(snapshot []byte) error { return r.inner.Restore(snapshot) }

// Log returns a copy of the applied command sequence.
func (r *Recorder) Log() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]string(nil), r.log...)
}
