package crdt

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
	"slices"
	"strings"
	"sync"
)

// The wire format used by all payload codecs is deterministic: keyed
// entries are emitted in sorted key order so that equivalent states
// marshal to identical bytes. Integers use uvarint encoding; strings and byte slices are
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

// slots encodes a counter's slots, which are already in replica order.
func (e *encBuf) slots(slots []slot) {
	e.uvarint(uint64(len(slots)))
	for _, s := range slots {
		e.str(s.replica)
		e.uvarint(s.n)
	}
}

// uvarintLen is the encoded size of a non-negative length or count.
func uvarintLen(n int) int { return uvarint64Len(uint64(n)) }

// uvarint64Len is the encoded size of v.
func uvarint64Len(v uint64) int { return (bits.Len64(v|1) + 6) / 7 }

// strLen is the encoded size of str(s).
func strLen(s string) int { return uvarintLen(len(s)) + len(s) }

// slotsLen is the encoded size of slots(slots).
func slotsLen(slots []slot) int {
	size := uvarintLen(len(slots))
	for _, s := range slots {
		size += strLen(s.replica) + uvarint64Len(s.n)
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

// slots decodes a counter's slots into the canonical form slots encodes
// for every equivalent counter: zero counts dropped, sorted by replica,
// one slot per replica, the last nonzero count read winning. A frame in
// that form already, which is every frame an encoder wrote, is decoded in
// one pass with no sort, and its replica IDs are interned (intern).
func (d *decBuf) slots() ([]slot, error) {
	n, err := d.count()
	if err != nil {
		return nil, err
	}
	out, sorted := make([]slot, 0, n), true
	for range n {
		k, err := d.span()
		if err != nil {
			return nil, err
		}
		v, err := d.uvarint()
		if err != nil {
			return nil, err
		}
		if v != 0 {
			sorted = sorted && (len(out) == 0 || out[len(out)-1].replica < string(k))
			out = append(out, slot{intern(k), v})
		}
	}
	if !sorted {
		// Stable: a replica's slots stay in frame order, so after the
		// reverse the first of each run is the last read, which Compact
		// keeps.
		slices.SortStableFunc(out, func(a, b slot) int { return strings.Compare(a.replica, b.replica) })
		slices.Reverse(out)
		out = slices.CompactFunc(out, func(a, b slot) bool { return a.replica == b.replica })
		slices.Reverse(out)
	}
	return out, nil
}

// interned maps the replica IDs decoded so far to one string each, so
// decoding a counter allocates no string for an ID seen before: a cluster
// has a handful. It stops growing at maxInterned IDs of at most
// maxInternLen bytes, so hostile frames cannot grow it without bound.
var (
	internMu sync.RWMutex
	interned = map[string]string{}
)

const maxInterned, maxInternLen = 1024, 64

// intern returns b as a string, the table's copy when it holds one.
func intern(b []byte) string {
	internMu.RLock()
	s, ok := interned[string(b)]
	internMu.RUnlock()
	if !ok {
		s = string(b)
		if internMu.Lock(); len(b) <= maxInternLen && len(interned) < maxInterned {
			interned[s] = s
		}
		internMu.Unlock()
	}
	return s
}
