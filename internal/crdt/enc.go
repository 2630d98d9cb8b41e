package crdt

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
	"sort"
)

// The wire format used by all payload codecs is deterministic: map keys are
// emitted in sorted order so that equivalent states marshal to identical
// bytes. Integers use uvarint encoding; strings and byte slices are
// length-prefixed.

var errTruncated = errors.New("crdt: truncated payload")

// encBuf appends an encoding to b. Encoders size b exactly first (the
// *Len helpers below), so a frame is built in one buffer, in one pass.
type encBuf struct {
	b []byte
}

func (e *encBuf) uvarint(v uint64) {
	e.b = binary.AppendUvarint(e.b, v)
}

func (e *encBuf) str(s string) {
	e.uvarint(uint64(len(s)))
	e.b = append(e.b, s...)
}

// strU64Map encodes a map[string]uint64 deterministically.
func (e *encBuf) strU64Map(m map[string]uint64) {
	keys := sortedKeys(m)
	e.uvarint(uint64(len(keys)))
	for _, k := range keys {
		e.str(k)
		e.uvarint(m[k])
	}
}

// uvarintLen is the encoded size of a non-negative length or count.
func uvarintLen(n int) int { return uvarint64Len(uint64(n)) }

// uvarint64Len is the encoded size of v.
func uvarint64Len(v uint64) int { return (bits.Len64(v|1) + 6) / 7 }

// strLen is the encoded size of str(s).
func strLen(s string) int { return uvarintLen(len(s)) + len(s) }

// strU64MapLen is the encoded size of strU64Map(m).
func strU64MapLen(m map[string]uint64) int {
	size := uvarintLen(len(m))
	for k, v := range m {
		size += strLen(k) + uvarint64Len(v)
	}
	return size
}

// decBuf reads the wire format by index.
type decBuf struct {
	b []byte
	i int // read position in b
	// arena, when set, is one copy of b: str then returns its substrings
	// instead of copying each string.
	arena string
}

func newDecBuf(p []byte) *decBuf { return &decBuf{b: p} }

func (d *decBuf) done() error {
	if d.i != len(d.b) {
		return fmt.Errorf("crdt: %d trailing bytes in payload", len(d.b)-d.i)
	}
	return nil
}

func (d *decBuf) uvarint() (uint64, error) {
	v, n := binary.Uvarint(d.b[d.i:])
	if n <= 0 {
		return 0, errTruncated
	}
	d.i += n
	return v, nil
}

// count reads the element count of a length-prefixed collection, or the
// length of a string. Every element occupies at least one byte, so a count
// above the bytes remaining can only come from a truncated or hostile
// frame; rejecting it here keeps a decoder from sizing an allocation by a
// number read off the wire. A one-byte count, which is every length and
// count below 128, is read without a call.
func (d *decBuf) count() (int, error) {
	if i := d.i; i < len(d.b) && d.b[i] < 0x80 && int(d.b[i]) < len(d.b)-i {
		d.i++
		return int(d.b[i]), nil
	}
	return d.countLong()
}

func (d *decBuf) countLong() (int, error) {
	n, err := d.uvarint()
	if err != nil {
		return 0, err
	}
	if n > uint64(len(d.b)-d.i) {
		return 0, errTruncated
	}
	return int(n), nil
}

// span reads a length-prefixed byte string. The result aliases the frame.
func (d *decBuf) span() ([]byte, error) {
	n, err := d.count()
	if err != nil {
		return nil, err
	}
	d.i += n
	return d.b[d.i-n : d.i : d.i], nil
}

// str reads a length-prefixed string: a copy of its own, or in arena mode
// the arena's substring at the same offset.
func (d *decBuf) str() (string, error) {
	n, err := d.count()
	if err != nil {
		return "", err
	}
	d.i += n
	if d.arena != "" {
		return d.arena[d.i-n : d.i], nil
	}
	return string(d.b[d.i-n : d.i]), nil
}

// strU64Map decodes a counter slot map. Zero values are dropped: a slot
// holding 0 equals an absent one, so the decoded map is the canonical form
// strU64Map encodes for every equivalent counter.
func (d *decBuf) strU64Map() (map[string]uint64, error) {
	n, err := d.count()
	if err != nil {
		return nil, err
	}
	m := make(map[string]uint64, n)
	for i := 0; i < n; i++ {
		k, err := d.str()
		if err != nil {
			return nil, err
		}
		v, err := d.uvarint()
		if err != nil {
			return nil, err
		}
		if v != 0 {
			m[k] = v
		}
	}
	return m, nil
}

func sortedKeys(m map[string]uint64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// cloneStrU64 deep-copies a map[string]uint64; used by mutators to preserve
// value semantics.
func cloneStrU64(m map[string]uint64) map[string]uint64 {
	out := make(map[string]uint64, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}
