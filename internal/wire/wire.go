package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
)

// ErrTruncated is reported when a reader runs out of input mid-field.
var ErrTruncated = errors.New("wire: truncated message")

// Writer incrementally builds a wire-encoded message.
type Writer struct {
	b []byte
}

// NewWriter returns a writer with the given capacity hint.
func NewWriter(sizeHint int) *Writer {
	return &Writer{b: make([]byte, 0, sizeHint)}
}

// MakeWriter returns a by-value writer appending to buf (normally an
// empty slice with the desired capacity). It performs no allocation of
// its own, so hot encode paths that can size their output precisely pay
// exactly one allocation — the buffer they pass in.
func MakeWriter(buf []byte) Writer { return Writer{b: buf} }

// Bytes returns the encoded message. The writer must not be reused after.
func (w *Writer) Bytes() []byte { return w.b }

// Len returns the number of bytes written so far.
func (w *Writer) Len() int { return len(w.b) }

// Byte appends a single byte (used for message type tags).
func (w *Writer) Byte(v byte) { w.b = append(w.b, v) }

// Bool appends a boolean as one byte.
func (w *Writer) Bool(v bool) {
	if v {
		w.b = append(w.b, 1)
	} else {
		w.b = append(w.b, 0)
	}
}

// Uvarint appends an unsigned varint.
func (w *Writer) Uvarint(v uint64) { w.b = binary.AppendUvarint(w.b, v) }

// Varint appends a signed varint.
func (w *Writer) Varint(v int64) { w.b = binary.AppendVarint(w.b, v) }

// Str appends a length-prefixed string.
func (w *Writer) Str(s string) {
	w.Uvarint(uint64(len(s)))
	w.b = append(w.b, s...)
}

// Raw appends a length-prefixed byte slice.
func (w *Writer) Raw(p []byte) {
	w.Uvarint(uint64(len(p)))
	w.b = append(w.b, p...)
}

// Fixed appends p without a length prefix, for fields of statically known
// width (e.g. state digests).
func (w *Writer) Fixed(p []byte) { w.b = append(w.b, p...) }

// Reader decodes a wire-encoded message produced by Writer. Str and Raw
// return copies that outlive the input; Span and Rest return views of
// it. A decoder takes a view only when its caller owns a freshly read
// buffer that nobody writes again (a client response frame, a replica
// message): the bytes are then copied once, off the socket, instead of
// twice.
type Reader struct {
	b   []byte
	err error
}

// NewReader returns a reader over p. The reader borrows p; callers must not
// mutate it while decoding.
func NewReader(p []byte) *Reader { return &Reader{b: p} }

// Err returns the first decoding error, if any.
func (r *Reader) Err() error { return r.err }

// Done returns an error if decoding failed or input remains.
func (r *Reader) Done() error {
	if r.err != nil {
		return r.err
	}
	if len(r.b) != 0 {
		return fmt.Errorf("wire: %d trailing bytes", len(r.b))
	}
	return nil
}

func (r *Reader) fail() {
	if r.err == nil {
		r.err = ErrTruncated
	}
}

// failf records a formatted decode error (first error wins).
func (r *Reader) failf(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf(format, args...)
	}
}

// Byte reads a single byte.
func (r *Reader) Byte() byte {
	if r.err != nil || len(r.b) < 1 {
		r.fail()
		return 0
	}
	v := r.b[0]
	r.b = r.b[1:]
	return v
}

// Bool reads a boolean.
func (r *Reader) Bool() bool { return r.Byte() != 0 }

// Uvarint reads an unsigned varint.
func (r *Reader) Uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.b)
	if n <= 0 {
		r.fail()
		return 0
	}
	r.b = r.b[n:]
	return v
}

// Varint reads a signed varint.
func (r *Reader) Varint() int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.b)
	if n <= 0 {
		r.fail()
		return 0
	}
	r.b = r.b[n:]
	return v
}

// Str reads a length-prefixed string.
func (r *Reader) Str() string {
	n := r.Uvarint()
	if r.err != nil || uint64(len(r.b)) < n {
		r.fail()
		return ""
	}
	s := string(r.b[:n])
	r.b = r.b[n:]
	return s
}

// Rest consumes and returns the unread remainder of the input. The slice
// aliases the reader's underlying buffer; it is used for trailing payload
// fields that need no length prefix.
func (r *Reader) Rest() []byte {
	if r.err != nil {
		return nil
	}
	p := r.b
	r.b = nil
	return p
}

// Fixed reads len(dst) bytes into dst (no length prefix).
func (r *Reader) Fixed(dst []byte) {
	if r.err != nil || len(r.b) < len(dst) {
		r.fail()
		return
	}
	copy(dst, r.b[:len(dst)])
	r.b = r.b[len(dst):]
}

// Raw reads a length-prefixed byte slice. The returned slice is a copy:
// use it for a field that outlives its input, or whose input buffer is
// reused (a pooled or recycled frame).
func (r *Reader) Raw() []byte { return bytes.Clone(r.Span()) }

// Span reads a length-prefixed byte slice like Raw, but returns a
// subslice of the reader's input instead of a copy, capped so that an
// append to it cannot write into the input. Use it for a field decoded
// out of a freshly allocated frame that nobody mutates afterwards, such
// as a state the caller decodes again (crdt.Unmarshal copies out what it
// keeps): the frame then costs one copy instead of two. The field pins
// the whole input while it is alive.
func (r *Reader) Span() []byte {
	n := r.Uvarint()
	if r.err != nil || uint64(len(r.b)) < n {
		r.fail()
		return nil
	}
	p := r.b[:n:n]
	r.b = r.b[n:]
	return p
}
