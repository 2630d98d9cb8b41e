package crdt

import (
	"bytes"
	"sort"
	"testing"
)

// The counter codec oracle: the map-based slot decoder and encoder the
// counters used before they held sorted slot slices. A map keeps the last
// nonzero count read for each replica, and the encoder sorts its keys.
// FuzzCounterCodec holds the slice codec to it.

func oracleSlots(d *decBuf) (map[string]uint64, error) {
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

func oracleEncode(e *encBuf, m map[string]uint64) {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	e.uvarint(uint64(len(keys)))
	for _, k := range keys {
		e.str(k)
		e.uvarint(m[k])
	}
}

// oracleDecode decodes a counter payload of parts slot lists (1 for a
// g-counter, 2 for a pn-counter) with the oracle and returns the sum of
// each list and the oracle's Marshal bytes.
func oracleDecode(name string, payload []byte, parts int) (sums []uint64, marshaled []byte, err error) {
	d := newDecBuf(payload)
	var body encBuf
	for range parts {
		m, err := oracleSlots(d)
		if err != nil {
			return nil, nil, err
		}
		var sum uint64
		for _, v := range m {
			sum += v
		}
		sums = append(sums, sum)
		oracleEncode(&body, m)
	}
	if err := d.done(); err != nil {
		return nil, nil, err
	}
	var e encBuf
	e.str(name)
	e.uvarint(uint64(len(body.b)))
	return sums, append(e.b, body.b...), nil
}

// spellSlots encodes a slot list as written, unsorted, duplicated and
// zero slots included.
func spellSlots(slots []slot) []byte {
	var e encBuf
	e.uvarint(uint64(len(slots)))
	for _, s := range slots {
		e.str(s.replica)
		e.uvarint(s.n)
	}
	return e.b
}

// scriptSlots reads a slot list off fuzz bytes, two bytes a slot: a
// replica ID from a small alphabet, so IDs repeat, and a count that is
// often 0.
func scriptSlots(script []byte) []slot {
	ids := []string{"n1", "n2", "", "n10", "n3", "a", "zz", "n1\x00"}
	var slots []slot
	for i := 0; i+1 < len(script); i += 2 {
		v := uint64(script[i+1] % 4)
		if script[i+1] >= 0xf0 {
			v = uint64(script[i+1]) << 40
		}
		slots = append(slots, slot{replica: ids[script[i]%uint8(len(ids))], n: v})
	}
	return slots
}

func checkCounterCodec(t *testing.T, name string, payload []byte) {
	t.Helper()
	parts := 1
	var s State = NewGCounter()
	if name == TypePNCounter {
		parts, s = 2, NewPNCounter()
	}
	sums, want, oerr := oracleDecode(name, payload, parts)
	err := s.(Unmarshaler).UnmarshalBinary(payload)
	if (err == nil) != (oerr == nil) {
		t.Fatalf("%s %x: slice decoder error %v, map decoder error %v", name, payload, err, oerr)
	}
	if err != nil {
		return
	}
	switch c := s.(type) {
	case *GCounter:
		if c.Value() != sums[0] {
			t.Fatalf("%s %x: value %d, map decoder %d", name, payload, c.Value(), sums[0])
		}
	case *PNCounter:
		if v := int64(sums[0]) - int64(sums[1]); c.Value() != v {
			t.Fatalf("%s %x: value %d, map decoder %d", name, payload, c.Value(), v)
		}
	}
	got, err := Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s %x: Marshal %x, map codec %x", name, payload, got, want)
	}
	d, err := DigestOf(s)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := Unmarshal(want)
	if err != nil {
		t.Fatal(err)
	}
	if rd, _ := DigestOf(ref); d != rd {
		t.Fatalf("%s %x: digest differs from the map codec's canonical form", name, payload)
	}
}

// FuzzCounterCodec checks the counters' slice codec against the map
// codec: over arbitrary payload bytes, and over slot lists spelled from
// the input with unsorted, duplicated and zero slots, both decoders accept
// the same payloads and give the same Value, the same Marshal bytes and
// the same DigestOf.
func FuzzCounterCodec(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 1, 0, 2, 3, 3})
	f.Add([]byte{0, 1, 0, 2, 0, 0, 1, 0xff, 2, 0})
	f.Add([]byte{7, 3, 6, 2, 5, 1, 4, 1, 3, 2, 2, 3, 1, 1, 0, 2})
	f.Add(spellSlots([]slot{{"n2", 1}, {"n1", 5}}))
	f.Fuzz(func(t *testing.T, script []byte) {
		for _, name := range []string{TypeGCounter, TypePNCounter} {
			checkCounterCodec(t, name, script)
		}
		slots := scriptSlots(script)
		checkCounterCodec(t, TypeGCounter, spellSlots(slots))
		half := len(slots) / 2
		checkCounterCodec(t, TypePNCounter, append(spellSlots(slots[:half]), spellSlots(slots[half:])...))
	})
}
