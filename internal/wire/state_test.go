package wire

import (
	"bytes"
	"testing"
)

func digest(b byte) (d [DigestSize]byte) {
	for i := range d {
		d[i] = b
	}
	return d
}

func stateFrameCases() []StateFrame {
	return []StateFrame{
		{Kind: StateNone},
		{Kind: StateFull, State: []byte("payload")},
		{Kind: StateFull, State: []byte{}},
		{Kind: StateDigest, Digest: digest(0xAA)},
		{Kind: StateDelta, Baseline: digest(0x01), Digest: digest(0x02), State: []byte("delta")},
		{Kind: StateFullDigest, State: []byte("seeded"), Digest: digest(0x7F)},
	}
}

func TestStateFrameRoundTrip(t *testing.T) {
	for _, f := range stateFrameCases() {
		w := NewWriter(64)
		f.Append(w)
		r := NewReader(w.Bytes())
		got := ReadStateFrame(r)
		if err := r.Done(); err != nil {
			t.Fatalf("%v: decode: %v", f.Kind, err)
		}
		if got.Kind != f.Kind || got.Digest != f.Digest || got.Baseline != f.Baseline {
			t.Fatalf("round trip changed frame: %+v vs %+v", f, got)
		}
		if !bytes.Equal(got.State, f.State) {
			t.Fatalf("%v: state %q vs %q", f.Kind, f.State, got.State)
		}
	}
}

// TestStateFrameNoneAndFullBytes pins the two kinds a full-mode cluster
// emits: none is the single byte 00, full is 01 followed by the raw state.
func TestStateFrameNoneAndFullBytes(t *testing.T) {
	w := NewWriter(8)
	StateFrame{Kind: StateNone}.Append(w)
	if !bytes.Equal(w.Bytes(), []byte{0}) {
		t.Fatalf("none = %x, want 00", w.Bytes())
	}
	w = NewWriter(8)
	StateFrame{Kind: StateFull, State: []byte("ab")}.Append(w)
	want := NewWriter(8)
	want.Bool(true)
	want.Raw([]byte("ab"))
	if !bytes.Equal(w.Bytes(), want.Bytes()) {
		t.Fatalf("full = %x, want %x", w.Bytes(), want.Bytes())
	}
}

func TestStateFrameRejectsUnknownKindAndTruncation(t *testing.T) {
	r := NewReader([]byte{9, 1, 2, 3})
	ReadStateFrame(r)
	if r.Err() == nil {
		t.Fatal("unknown kind accepted")
	}
	for _, f := range stateFrameCases() {
		w := NewWriter(64)
		f.Append(w)
		raw := w.Bytes()
		for cut := 0; cut < len(raw); cut++ {
			r := NewReader(raw[:cut])
			ReadStateFrame(r)
			if err := r.Done(); err == nil && cut != len(raw) {
				t.Fatalf("%v: truncation at %d/%d accepted", f.Kind, cut, len(raw))
			}
		}
	}
}

func TestStateKindPredicates(t *testing.T) {
	wantPayload := map[StateKind]bool{StateFull: true, StateDelta: true, StateFullDigest: true}
	wantDigest := map[StateKind]bool{StateDigest: true, StateDelta: true, StateFullDigest: true}
	for k := StateNone; k <= StateFullDigest; k++ {
		if k.HasPayload() != wantPayload[k] {
			t.Errorf("%v.HasPayload() = %t", k, k.HasPayload())
		}
		if k.HasDigest() != wantDigest[k] {
			t.Errorf("%v.HasDigest() = %t", k, k.HasDigest())
		}
	}
}

// FuzzDecodeStateFrame asserts the state-frame decoder never panics on
// arbitrary bytes and that everything it accepts survives an encode →
// decode round trip unchanged. (Byte identity is not required: varint
// length prefixes admit non-canonical encodings.)
func FuzzDecodeStateFrame(f *testing.F) {
	for _, fr := range stateFrameCases() {
		w := NewWriter(64)
		fr.Append(w)
		f.Add(w.Bytes())
		if len(w.Bytes()) > 2 {
			f.Add(w.Bytes()[:len(w.Bytes())/2])
		}
	}
	f.Add([]byte{})
	f.Add([]byte{2})
	f.Add([]byte{3, 0xFF})
	f.Add([]byte{9, 9, 9})

	f.Fuzz(func(t *testing.T, data []byte) {
		r := NewReader(data)
		fr := ReadStateFrame(r)
		if err := r.Done(); err != nil {
			return // malformed input must be rejected, not crash
		}
		w := NewWriter(len(data))
		fr.Append(w)
		r2 := NewReader(w.Bytes())
		again := ReadStateFrame(r2)
		if err := r2.Done(); err != nil {
			t.Fatalf("accepted frame re-encodes undecodably: %v", err)
		}
		if again.Kind != fr.Kind || again.Digest != fr.Digest || again.Baseline != fr.Baseline || !bytes.Equal(again.State, fr.State) {
			t.Fatalf("encode/decode not idempotent:\n first  %+v\n second %+v", fr, again)
		}
	})
}

// FuzzUnpackEnvelope asserts the object-envelope decoder never panics and
// that accepted envelopes round-trip through PackEnvelope.
func FuzzUnpackEnvelope(f *testing.F) {
	f.Add(PackEnvelope("", []byte{}))
	f.Add(PackEnvelope("obj/0001", []byte("payload")))
	f.Add([]byte{})
	f.Add([]byte{0xFF, 0xFF})

	f.Fuzz(func(t *testing.T, data []byte) {
		id, payload, err := UnpackEnvelope(data)
		if err != nil {
			return
		}
		id2, payload2, err := UnpackEnvelope(PackEnvelope(id, payload))
		if err != nil {
			t.Fatalf("accepted envelope re-packs unreadably: %v", err)
		}
		if id2 != id || !bytes.Equal(payload2, payload) {
			t.Fatalf("envelope round trip changed content: id %q vs %q", id, id2)
		}
	})
}
