package persist

import (
	"crypto/sha256"
	"errors"
	"reflect"
	"testing"

	"crdtsmr/internal/core"
	"crdtsmr/internal/crdt"
	"crdtsmr/internal/transport"
	"crdtsmr/internal/wire"
)

// TestConfigRoundTrip: the v2 format carries the membership configuration
// through encode/decode and back into a core.Snapshot.
func TestConfigRoundTrip(t *testing.T) {
	snap := core.Snapshot{
		Round:   core.Round{Number: 3, ID: core.RoundID{Proposer: "n1", Seq: 4}},
		State:   crdt.NewGCounter().Inc("n1", 2),
		NextReq: 7,
		NextSeq: 2,
		Config: core.Config{
			Epoch:   5,
			Source:  "n2",
			Members: []transport.NodeID{"n1", "n2", "n3", "n4"},
		},
	}
	rec, err := FromSnapshot("cfg", snap)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Epoch != 5 || rec.Source != "n2" || len(rec.Members) != 4 {
		t.Fatalf("record config = epoch %d source %q members %v", rec.Epoch, rec.Source, rec.Members)
	}
	back, err := DecodeRecord(EncodeRecord(rec))
	if err != nil {
		t.Fatal(err)
	}
	got, err := back.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Config, snap.Config) {
		t.Fatalf("config = %+v, want %+v", got.Config, snap.Config)
	}
}

// TestDecodeRejectsVersion1: a pre-reconfiguration (v1) snapshot file —
// the version-2 layout without the config section, correctly checksummed —
// is refused like any other unknown version. Nothing ever wrote v1 files
// that a current binary must recover.
func TestDecodeRejectsVersion1(t *testing.T) {
	rec := sampleRecord(t)
	w := wire.NewWriter(256)
	w.Fixed([]byte(magic))
	w.Byte(1)
	w.Str(rec.Key)
	w.Varint(rec.Round.Number)
	w.Str(string(rec.Round.ID.Proposer))
	w.Uvarint(rec.Round.ID.Seq)
	w.Uvarint(rec.NextReq)
	w.Uvarint(rec.NextSeq)
	wire.StateFrame{Kind: wire.StateFull, State: rec.State}.Append(w)
	wire.StateFrame{Kind: wire.StateNone}.Append(w)
	sum := sha256.Sum256(w.Bytes())
	w.Fixed(sum[:])

	if _, err := DecodeRecord(w.Bytes()); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("v1 record: err = %v, want ErrCorrupt", err)
	}
}
