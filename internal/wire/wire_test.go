package wire

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"
)

func TestRoundTrip(t *testing.T) {
	w := NewWriter(64)
	w.Byte(7)
	w.Bool(true)
	w.Bool(false)
	w.Uvarint(0)
	w.Uvarint(1<<63 + 5)
	w.Varint(-42)
	w.Varint(1 << 40)
	w.Str("")
	w.Str("hello, 世界")
	w.Raw(nil)
	w.Raw([]byte{0, 1, 2, 255})

	r := NewReader(w.Bytes())
	if got := r.Byte(); got != 7 {
		t.Fatalf("Byte = %d", got)
	}
	if !r.Bool() || r.Bool() {
		t.Fatal("Bool mismatch")
	}
	if got := r.Uvarint(); got != 0 {
		t.Fatalf("Uvarint = %d", got)
	}
	if got := r.Uvarint(); got != 1<<63+5 {
		t.Fatalf("Uvarint = %d", got)
	}
	if got := r.Varint(); got != -42 {
		t.Fatalf("Varint = %d", got)
	}
	if got := r.Varint(); got != 1<<40 {
		t.Fatalf("Varint = %d", got)
	}
	if got := r.Str(); got != "" {
		t.Fatalf("Str = %q", got)
	}
	if got := r.Str(); got != "hello, 世界" {
		t.Fatalf("Str = %q", got)
	}
	if got := r.Raw(); len(got) != 0 {
		t.Fatalf("Raw = %v", got)
	}
	if got := r.Raw(); !bytes.Equal(got, []byte{0, 1, 2, 255}) {
		t.Fatalf("Raw = %v", got)
	}
	if err := r.Done(); err != nil {
		t.Fatalf("Done: %v", err)
	}
}

func TestReaderTruncation(t *testing.T) {
	w := NewWriter(16)
	w.Str("abcdef")
	w.Uvarint(300)
	full := w.Bytes()
	for cut := 0; cut < len(full); cut++ {
		r := NewReader(full[:cut])
		_ = r.Str()
		_ = r.Uvarint()
		if err := r.Done(); err == nil {
			t.Fatalf("cut=%d: expected error", cut)
		}
	}
}

func TestReaderTrailingBytes(t *testing.T) {
	w := NewWriter(8)
	w.Uvarint(1)
	w.Byte(9)
	r := NewReader(w.Bytes())
	_ = r.Uvarint()
	if err := r.Done(); err == nil {
		t.Fatal("expected trailing-bytes error")
	}
}

func TestReaderErrSticky(t *testing.T) {
	r := NewReader(nil)
	_ = r.Uvarint()
	if r.Err() == nil {
		t.Fatal("expected error after empty read")
	}
	// Subsequent reads keep returning zero values without panicking.
	if got := r.Str(); got != "" {
		t.Fatalf("Str after error = %q", got)
	}
	if got := r.Raw(); got != nil {
		t.Fatalf("Raw after error = %v", got)
	}
	if r.Done() == nil {
		t.Fatal("Done should surface the error")
	}
}

func TestQuickVarintRoundTrip(t *testing.T) {
	f := func(u uint64, v int64, s string, p []byte) bool {
		w := NewWriter(32)
		w.Uvarint(u)
		w.Varint(v)
		w.Str(s)
		w.Raw(p)
		r := NewReader(w.Bytes())
		gu, gv, gs, gp := r.Uvarint(), r.Varint(), r.Str(), r.Raw()
		return r.Done() == nil && gu == u && gv == v && gs == s && bytes.Equal(gp, p)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestRawCopies(t *testing.T) {
	w := NewWriter(8)
	w.Raw([]byte{1, 2, 3})
	buf := w.Bytes()
	r := NewReader(buf)
	got := r.Raw()
	buf[len(buf)-1] = 99 // mutate the source
	if got[2] != 3 {
		t.Fatal("Raw must return a copy independent of the input buffer")
	}
}

// TestSpanAliases: Span reads the same field as Raw, as a capped view of
// the input rather than a copy.
func TestSpanAliases(t *testing.T) {
	w := NewWriter(8)
	w.Raw([]byte{1, 2, 3})
	w.Byte(9)
	buf := w.Bytes()
	r := NewReader(buf)
	got := r.Span()
	if r.Byte() != 9 || r.Done() != nil {
		t.Fatal("Span must consume exactly the length-prefixed field")
	}
	buf[1] = 7
	if got[0] != 7 {
		t.Fatal("Span must return a view of the input, not a copy")
	}
	if cap(got) != 3 {
		t.Fatalf("Span cap %d, want 3: an append could write into the input", cap(got))
	}
	short := NewReader([]byte{5, 1})
	if p := short.Span(); p != nil || !errors.Is(short.Err(), ErrTruncated) {
		t.Fatalf("truncated Span = %v, %v", p, short.Err())
	}
}
