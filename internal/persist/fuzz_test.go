package persist

import (
	"bytes"
	"testing"

	"crdtsmr/internal/core"
	"crdtsmr/internal/crdt"
)

// FuzzDecodeRecord feeds arbitrary bytes to the snapshot decoder — the
// same pattern as the wire package's FuzzDecodeStateFrame: decoding must
// never panic, and every input it accepts must survive a deterministic
// re-encode round trip. Seeds cover valid records of several payload
// types plus classic mutations (truncation, bit flips); the committed
// corpus under testdata/fuzz extends them.
func FuzzDecodeRecord(f *testing.F) {
	seeds := []Record{
		mustRecord(f, "views", crdt.NewGCounter().Inc("n1", 7)),
		mustRecord(f, "or-set/sessions", crdt.NewORSet().Add("alice", "n2", 4)),
		mustRecord(f, "", crdt.NewLWWRegister().Set("v", 9, "n3")),
	}
	for _, rec := range seeds {
		rec.Round = core.Round{Number: 3, ID: core.RoundID{Proposer: "n1", Seq: 2}}
		rec.NextReq, rec.NextSeq = 5, 6
		raw := EncodeRecord(rec)
		f.Add(raw)
		f.Add(raw[:len(raw)/2])
		flipped := append([]byte(nil), raw...)
		flipped[len(flipped)/3] ^= 0x40
		f.Add(flipped)
	}
	f.Add([]byte{})
	f.Add([]byte(magic))
	f.Add(bytes.Repeat([]byte{0xAA}, 64))

	f.Fuzz(func(t *testing.T, data []byte) {
		rec, err := DecodeRecord(data)
		if err != nil {
			return // corrupt input must be rejected, not crash
		}
		raw := EncodeRecord(rec)
		back, err := DecodeRecord(raw)
		if err != nil {
			t.Fatalf("re-decode of re-encoded record failed: %v", err)
		}
		if back.Key != rec.Key || back.Round != rec.Round ||
			back.NextReq != rec.NextReq || back.NextSeq != rec.NextSeq ||
			!bytes.Equal(back.State, rec.State) || !bytes.Equal(back.Learned, rec.Learned) {
			t.Fatalf("record did not round-trip: %+v vs %+v", back, rec)
		}
	})
}

// FuzzDecodeFile feeds arbitrary bytes to the whole-file decoder, the one
// LoadAll runs: decoding must never panic, and whenever it finds a record,
// that record saved alone in a fresh file must decode back to itself. The
// committed corpus under testdata/fuzz holds a torn tail, a corrupted
// length header, a corrupt middle frame, an empty file and a version-2
// file.
func FuzzDecodeFile(f *testing.F) {
	recs := []Record{
		mustRecord(f, "views", crdt.NewGCounter().Inc("n1", 7)),
		mustRecord(f, "views", crdt.NewGCounter().Inc("n1", 8)),
	}
	one := appendFrame([]byte(fileHeader), recs[0])
	two := appendFrame(append([]byte(nil), one...), recs[1])
	f.Add(one)
	f.Add(two)
	f.Add(two[:len(two)-3])
	f.Add(EncodeRecord(recs[0]))
	f.Add([]byte(fileHeader))

	f.Fuzz(func(t *testing.T, data []byte) {
		rec, found, err := DecodeFile(data)
		if err != nil || !found {
			return
		}
		back, found, err := DecodeFile(appendFrame([]byte(fileHeader), rec))
		if err != nil || !found {
			t.Fatalf("re-decode of a one-frame file failed: found=%t err=%v", found, err)
		}
		if back.Key != rec.Key || back.Round != rec.Round ||
			back.NextReq != rec.NextReq || back.NextSeq != rec.NextSeq ||
			!bytes.Equal(back.State, rec.State) || !bytes.Equal(back.Learned, rec.Learned) {
			t.Fatalf("record did not round-trip: %+v vs %+v", back, rec)
		}
	})
}

func mustRecord(f *testing.F, key string, s crdt.State) Record {
	rec, err := FromSnapshot(key, core.Snapshot{State: s})
	if err != nil {
		f.Fatal(err)
	}
	return rec
}
