package rsm

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// allOpcodeCommands is one command per opcode, covering every encoder.
func allOpcodeCommands() [][]byte {
	return [][]byte{
		EncodeIncKey("", 7),
		EncodeIncKey("", -3),
		EncodeReadKey(""),
		EncodeNoop(),
		EncodeIncKey("c0", 5),
		EncodeIncKey("c1", -2),
		EncodeReadKey("c0"),
		EncodeReadKey("missing"),
		EncodeAddKey("s0", "apple"),
		EncodeAddKey("s0", "pear"),
		EncodeAddKey("s1", "apple"),
		EncodeCardKey("s0"),
		EncodeCardKey("missing"),
	}
}

func TestStoreApplyKeyedOps(t *testing.T) {
	s := NewStore()
	s.Apply(EncodeIncKey("c0", 5))
	s.Apply(EncodeIncKey("c0", -2))
	s.Apply(EncodeIncKey("c1", 10))
	if got, err := DecodeValue(s.Apply(EncodeReadKey("c0"))); err != nil || got != 3 {
		t.Fatalf("read c0 = %d, %v", got, err)
	}
	if got := s.CounterValue("c1"); got != 10 {
		t.Fatalf("c1 = %d", got)
	}
	s.Apply(EncodeAddKey("s0", "apple"))
	s.Apply(EncodeAddKey("s0", "apple")) // idempotent
	s.Apply(EncodeAddKey("s0", "pear"))
	if got, err := DecodeValue(s.Apply(EncodeCardKey("s0"))); err != nil || got != 2 {
		t.Fatalf("card s0 = %d, %v", got, err)
	}
}

// TestStoreApplyDeterminism replays a seeded random command stream into
// two stores and requires identical results and byte-equal snapshots at
// every step — the core contract a replicated state machine owes the log.
func TestStoreApplyDeterminism(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	cmds := make([][]byte, 300)
	for i := range cmds {
		key := fmt.Sprintf("k%d", rng.Intn(4))
		switch rng.Intn(6) {
		case 0:
			cmds[i] = EncodeIncKey(key, int64(rng.Intn(20)-10))
		case 1:
			cmds[i] = EncodeReadKey(key)
		case 2:
			cmds[i] = EncodeAddKey(key, fmt.Sprintf("e%d", rng.Intn(8)))
		case 3:
			cmds[i] = EncodeCardKey(key)
		case 4:
			cmds[i] = EncodeNoop()
		default:
			b := make([]byte, rng.Intn(6))
			rng.Read(b)
			cmds[i] = b // garbage must be a deterministic no-op
		}
	}
	a, b := NewStore(), NewStore()
	for i, cmd := range cmds {
		ra, rb := a.Apply(cmd), b.Apply(cmd)
		if !bytes.Equal(ra, rb) {
			t.Fatalf("cmd %d: results diverged: %x vs %x", i, ra, rb)
		}
		if !bytes.Equal(a.Snapshot(), b.Snapshot()) {
			t.Fatalf("cmd %d: snapshots diverged", i)
		}
	}
}

// TestStoreSnapshotRestoreAllOpcodes round-trips a state built from every
// opcode and checks the restored store answers reads identically and
// re-snapshots byte-equal (the snapshot encoding is canonical).
func TestStoreSnapshotRestoreAllOpcodes(t *testing.T) {
	s := NewStore()
	for _, cmd := range allOpcodeCommands() {
		s.Apply(cmd)
	}
	snap := s.Snapshot()

	r := NewStore()
	r.Apply(EncodeIncKey("junk", 99)) // restore must replace, not merge
	if err := r.Restore(snap); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(r.Snapshot(), snap) {
		t.Fatal("restored snapshot is not byte-equal")
	}
	for _, key := range []string{"", "c0", "c1", "junk"} {
		if r.CounterValue(key) != s.CounterValue(key) {
			t.Fatalf("counter %q: %d vs %d", key, r.CounterValue(key), s.CounterValue(key))
		}
	}
	for _, key := range []string{"s0", "s1"} {
		if r.Card(key) != s.Card(key) {
			t.Fatalf("set %q: %d vs %d", key, r.Card(key), s.Card(key))
		}
	}
}

func TestStoreRestoreRejectsGarbage(t *testing.T) {
	s := NewStore()
	s.Apply(EncodeIncKey("keep", 1))
	for _, bad := range [][]byte{{0xff}, []byte("nonsense"), bytes.Repeat([]byte{0x01}, 3)} {
		if err := s.Restore(bad); err == nil {
			t.Fatalf("Restore(%x) accepted garbage", bad)
		}
	}
	if s.CounterValue("keep") != 1 {
		t.Fatal("failed restore corrupted the state")
	}
}

func TestDecodeCommandRoundTrip(t *testing.T) {
	for _, cmd := range allOpcodeCommands() {
		c, err := DecodeCommand(cmd)
		if err != nil {
			t.Fatalf("DecodeCommand(%x): %v", cmd, err)
		}
		if !bytes.Equal(c.Encode(), cmd) {
			t.Fatalf("re-encode mismatch: %x vs %x", c.Encode(), cmd)
		}
	}
	// Opcodes 1 and 2 are retired: an increment and a read of the unkeyed
	// counter.
	for _, bad := range [][]byte{nil, {}, {0}, {1, 2}, {2}, {99}, append(EncodeNoop(), 0x01), EncodeIncKey("k", 1)[:3]} {
		if _, err := DecodeCommand(bad); err == nil {
			t.Fatalf("DecodeCommand(%x) accepted a bad command", bad)
		}
	}
}

func TestRecorderLogsAppliedSequence(t *testing.T) {
	rec := NewRecorder(NewStore())
	cmds := [][]byte{EncodeIncKey("c0", 1), EncodeReadKey("c0"), EncodeNoop()}
	for _, cmd := range cmds {
		rec.Apply(cmd)
	}
	log := rec.Log()
	if len(log) != len(cmds) {
		t.Fatalf("log length %d, want %d", len(log), len(cmds))
	}
	for i := range cmds {
		if log[i] != string(cmds[i]) {
			t.Fatalf("log[%d] = %x, want %x", i, log[i], cmds[i])
		}
	}
	// Snapshot/Restore delegate to the inner machine.
	snap := rec.Snapshot()
	other := NewStore()
	if err := other.Restore(snap); err != nil {
		t.Fatal(err)
	}
	if other.CounterValue("c0") != 1 {
		t.Fatalf("snapshot did not delegate: c0 = %d", other.CounterValue("c0"))
	}
}

// FuzzDecodeCommand: the decoder must never panic, must round-trip every
// command it accepts, and Apply of arbitrary bytes must stay deterministic
// across two fresh stores. Seed corpus committed under testdata/fuzz.
func FuzzDecodeCommand(f *testing.F) {
	for _, cmd := range allOpcodeCommands() {
		f.Add(cmd)
	}
	f.Add([]byte{})
	f.Add([]byte{0xff, 0x00})
	f.Fuzz(func(t *testing.T, data []byte) {
		// Byte-equality is too strong here: varints admit non-minimal
		// encodings. The invariant is semantic — re-encoding an accepted
		// command decodes to the same command.
		c, err := DecodeCommand(data)
		if err == nil {
			c2, err2 := DecodeCommand(c.Encode())
			if err2 != nil || c2 != c {
				t.Fatalf("round-trip mismatch: %x -> %+v -> %x (%v)", data, c, c.Encode(), err2)
			}
		}
		a, b := NewStore(), NewStore()
		if ra, rb := a.Apply(data), b.Apply(data); !bytes.Equal(ra, rb) {
			t.Fatalf("Apply nondeterministic: %x vs %x", ra, rb)
		}
		if !reflect.DeepEqual(a.Snapshot(), b.Snapshot()) {
			t.Fatal("Apply left diverged states")
		}
	})
}
