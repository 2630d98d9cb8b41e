package crdt

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
	"slices"
	"sort"
)

// The wire format used by all payload codecs is deterministic: map keys are
// emitted in sorted order so that equivalent states marshal to identical
// bytes. Integers use uvarint encoding; strings and byte slices are
// length-prefixed.

var errTruncated = errors.New("crdt: truncated payload")

type encBuf struct {
	b []byte
}

func newEncBuf(sizeHint int) *encBuf {
	return &encBuf{b: make([]byte, 0, sizeHint)}
}

func (e *encBuf) bytes() []byte { return e.b }

func (e *encBuf) uvarint(v uint64) {
	e.b = binary.AppendUvarint(e.b, v)
}

func (e *encBuf) str(s string) {
	e.uvarint(uint64(len(s)))
	e.b = append(e.b, s...)
}

func (e *encBuf) raw(p []byte) {
	e.uvarint(uint64(len(p)))
	e.b = append(e.b, p...)
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

// strs encodes an ascending string slice.
func (e *encBuf) strs(xs []string) {
	e.uvarint(uint64(len(xs)))
	for _, x := range xs {
		e.str(x)
	}
}

// uvarintLen is the encoded size of a non-negative length or count.
func uvarintLen(n int) int { return (bits.Len64(uint64(n)|1) + 6) / 7 }

// strsLen is the encoded size of strs(xs).
func strsLen(xs []string) int {
	size := uvarintLen(len(xs))
	for _, x := range xs {
		size += uvarintLen(len(x)) + len(x)
	}
	return size
}

type decBuf struct {
	b []byte
}

func newDecBuf(p []byte) *decBuf { return &decBuf{b: p} }

func (d *decBuf) done() error {
	if len(d.b) != 0 {
		return fmt.Errorf("crdt: %d trailing bytes in payload", len(d.b))
	}
	return nil
}

func (d *decBuf) uvarint() (uint64, error) {
	v, n := binary.Uvarint(d.b)
	if n <= 0 {
		return 0, errTruncated
	}
	d.b = d.b[n:]
	return v, nil
}

// count reads the element count of a length-prefixed collection. Every
// element occupies at least one byte, so a count above the bytes remaining
// can only come from a truncated or hostile frame; rejecting it here keeps
// a decoder from sizing an allocation by a number read off the wire.
func (d *decBuf) count() (int, error) {
	n, err := d.uvarint()
	if err != nil {
		return 0, err
	}
	if n > uint64(len(d.b)) {
		return 0, errTruncated
	}
	return int(n), nil
}

func (d *decBuf) str() (string, error) {
	n, err := d.uvarint()
	if err != nil {
		return "", err
	}
	if uint64(len(d.b)) < n {
		return "", errTruncated
	}
	s := string(d.b[:n])
	d.b = d.b[n:]
	return s, nil
}

func (d *decBuf) raw() ([]byte, error) {
	n, err := d.uvarint()
	if err != nil {
		return nil, err
	}
	if uint64(len(d.b)) < n {
		return nil, errTruncated
	}
	p := make([]byte, n)
	copy(p, d.b[:n])
	d.b = d.b[n:]
	return p, nil
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

// sortedStrs decodes a string collection into an ascending, duplicate-free
// slice. Input in any order and with repeats is accepted; only input that is
// not already strictly ascending is sorted.
func (d *decBuf) sortedStrs() ([]string, error) {
	n, err := d.count()
	if err != nil {
		return nil, err
	}
	if n == 0 {
		return nil, nil
	}
	xs := make([]string, n)
	ascending := true
	for i := range xs {
		if xs[i], err = d.str(); err != nil {
			return nil, err
		}
		ascending = ascending && (i == 0 || xs[i-1] < xs[i])
	}
	if !ascending {
		slices.Sort(xs)
		xs = slices.Compact(xs)
	}
	return xs, nil
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
