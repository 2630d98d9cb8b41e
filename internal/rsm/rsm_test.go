package rsm

import (
	"testing"
	"testing/quick"
)

// The counter tests drive one named counter of the Store.
const ctr = "c"

func TestCounterApplyIncAndRead(t *testing.T) {
	s := NewStore()
	if res := s.Apply(EncodeIncKey(ctr, 5)); res != nil {
		t.Fatalf("inc returned %v", res)
	}
	s.Apply(EncodeIncKey(ctr, -2))
	v, err := DecodeValue(s.Apply(EncodeReadKey(ctr)))
	if err != nil || v != 3 {
		t.Fatalf("read = %d, %v; want 3", v, err)
	}
	if got := s.CounterValue(ctr); got != 3 {
		t.Fatalf("CounterValue = %d", got)
	}
}

func TestCounterNoopAndGarbage(t *testing.T) {
	s := NewStore()
	s.Apply(EncodeNoop())
	s.Apply(nil)
	s.Apply([]byte{0xFF, 1, 2})
	if got := s.CounterValue(ctr); got != 0 {
		t.Fatalf("noop/garbage changed value to %d", got)
	}
}

func TestCounterSnapshotRestore(t *testing.T) {
	s := NewStore()
	s.Apply(EncodeIncKey(ctr, 42))
	snap := s.Snapshot()

	fresh := NewStore()
	if err := fresh.Restore(snap); err != nil {
		t.Fatal(err)
	}
	if got := fresh.CounterValue(ctr); got != 42 {
		t.Fatalf("restored value = %d, want 42", got)
	}
	if err := fresh.Restore([]byte{}); err == nil {
		t.Fatal("empty snapshot accepted")
	}
	if err := fresh.Restore([]byte{0x80}); err == nil {
		t.Fatal("truncated snapshot accepted")
	}
}

func TestDecodeValueRejectsGarbage(t *testing.T) {
	if _, err := DecodeValue(nil); err == nil {
		t.Fatal("nil result accepted")
	}
	if _, err := DecodeValue([]byte{0x01, 0x02, 0x03}); err == nil {
		t.Fatal("trailing bytes accepted")
	}
}

func TestQuickCounterSumsDeltas(t *testing.T) {
	f := func(deltas []int16) bool {
		s := NewStore()
		var want int64
		for _, d := range deltas {
			s.Apply(EncodeIncKey(ctr, int64(d)))
			want += int64(d)
		}
		v, err := DecodeValue(s.Apply(EncodeReadKey(ctr)))
		return err == nil && v == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickSnapshotRoundTrip(t *testing.T) {
	f := func(v int64) bool {
		s := NewStore()
		s.Apply(EncodeIncKey(ctr, v))
		fresh := NewStore()
		if err := fresh.Restore(s.Snapshot()); err != nil {
			return false
		}
		return fresh.CounterValue(ctr) == v
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}
