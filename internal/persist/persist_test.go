package persist

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"crdtsmr/internal/core"
	"crdtsmr/internal/crdt"
	"crdtsmr/internal/transport"
)

// stateGen builds a pseudo-random state of one payload type. The map must
// cover the full codec registry — TestGeneratorsCoverRegistry guards that
// a newly registered CRDT cannot silently skip the snapshot round-trip
// property test.
var stateGen = map[string]func(r *rand.Rand) crdt.State{
	crdt.TypeGCounter: func(r *rand.Rand) crdt.State {
		c := crdt.NewGCounter()
		for i := 0; i < r.Intn(5); i++ {
			c = c.Inc(fmt.Sprintf("r%d", r.Intn(4)), uint64(r.Intn(10)+1))
		}
		return c
	},
	crdt.TypePNCounter: func(r *rand.Rand) crdt.State {
		c := crdt.NewPNCounter()
		for i := 0; i < r.Intn(5); i++ {
			rep := fmt.Sprintf("r%d", r.Intn(4))
			if r.Intn(2) == 0 {
				c = c.Inc(rep, uint64(r.Intn(10)+1))
			} else {
				c = c.Dec(rep, uint64(r.Intn(10)+1))
			}
		}
		return c
	},
	crdt.TypeLWWRegister: func(r *rand.Rand) crdt.State {
		l := crdt.NewLWWRegister()
		for i := 0; i < r.Intn(4); i++ {
			l = l.Set(fmt.Sprintf("v%d", r.Intn(8)), uint64(r.Intn(20)), fmt.Sprintf("a%d", r.Intn(3)))
		}
		return l
	},
	crdt.TypeORSet: func(r *rand.Rand) crdt.State {
		s := crdt.NewORSet()
		for i := 0; i < r.Intn(6); i++ {
			e := fmt.Sprintf("e%d", r.Intn(10))
			if r.Intn(3) == 0 {
				s = s.Remove(e)
			} else {
				s = s.Add(e, fmt.Sprintf("a%d", r.Intn(3)), uint64(r.Intn(100)))
			}
		}
		return s
	},
}

func TestGeneratorsCoverRegistry(t *testing.T) {
	for _, name := range crdt.Names() {
		if _, ok := stateGen[name]; !ok {
			t.Errorf("registered type %q has no generator in persist_test.go", name)
		}
	}
}

func randomRound(r *rand.Rand) core.Round {
	return core.Round{
		Number: int64(r.Intn(1000)) - 1,
		ID: core.RoundID{
			Proposer: transport.NodeID(fmt.Sprintf("n%d", r.Intn(5))),
			Seq:      uint64(r.Intn(1 << 20)),
		},
	}
}

// TestSnapshotRoundTripAllTypes is the codec property test: for every
// registered CRDT type, encode→decode of a snapshot record is identity —
// byte-identical marshaled states, equal round metadata — and the decoded
// record rehydrates into a core.Snapshot whose states are equivalent to
// the originals.
func TestSnapshotRoundTripAllTypes(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	for _, name := range crdt.Names() {
		gen, ok := stateGen[name]
		if !ok {
			t.Fatalf("no generator for %q", name)
		}
		for i := 0; i < 50; i++ {
			state := gen(r)
			learned := gen(r)
			snap := core.Snapshot{
				Round:   randomRound(r),
				State:   state,
				Learned: learned,
				NextReq: uint64(r.Intn(1 << 16)),
				NextSeq: uint64(r.Intn(1 << 16)),
			}
			key := fmt.Sprintf("%s/obj-%d", name, i)
			rec, err := FromSnapshot(key, snap)
			if err != nil {
				t.Fatalf("%s: FromSnapshot: %v", name, err)
			}
			back, err := DecodeRecord(EncodeRecord(rec))
			if err != nil {
				t.Fatalf("%s: decode: %v", name, err)
			}
			if back.Key != key || back.Round != snap.Round ||
				back.NextReq != snap.NextReq || back.NextSeq != snap.NextSeq {
				t.Fatalf("%s: metadata did not round-trip: %+v vs %+v", name, back, rec)
			}
			got, err := back.Snapshot()
			if err != nil {
				t.Fatalf("%s: rehydrate: %v", name, err)
			}
			if eq, err := crdt.Equivalent(got.State, state); err != nil || !eq {
				t.Fatalf("%s: payload not equivalent after round trip (eq=%t err=%v)", name, eq, err)
			}
			wantLearned := learned
			if got.Learned == nil {
				// Learned was byte-identical to the payload and elided.
				got.Learned = got.State
			}
			if eq, err := crdt.Equivalent(got.Learned, wantLearned); err != nil || !eq {
				t.Fatalf("%s: learned state not equivalent after round trip (eq=%t err=%v)", name, eq, err)
			}
		}
	}
}

// TestLearnedElidedWhenEquivalent: the learned frame must be StateNone
// when learned ≡ payload, keeping the common case at one state per file.
func TestLearnedElidedWhenEquivalent(t *testing.T) {
	c := crdt.NewGCounter().Inc("n1", 3)
	rec, err := FromSnapshot("k", core.Snapshot{State: c, Learned: c})
	if err != nil {
		t.Fatal(err)
	}
	if rec.Learned != nil {
		t.Fatal("learned state stored despite being identical to the payload")
	}
	// Equivalent-but-distinct values elide too (deterministic marshal).
	c2 := crdt.NewGCounter().Inc("n1", 3)
	rec, err = FromSnapshot("k", core.Snapshot{State: c, Learned: c2})
	if err != nil {
		t.Fatal(err)
	}
	if rec.Learned != nil {
		t.Fatal("equivalent learned state stored despite identical encoding")
	}
}

func sampleRecord(t *testing.T) Record {
	t.Helper()
	rec, err := FromSnapshot("views", core.Snapshot{
		Round:   core.Round{Number: 7, ID: core.RoundID{Proposer: "n2", Seq: 9}},
		State:   crdt.NewGCounter().Inc("n1", 4),
		NextReq: 11,
		NextSeq: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	return rec
}

// TestDecodeRejectsCorruption: every corruption class must come back as a
// typed ErrCorrupt — truncation, bit flips (checksum), bad magic, unknown
// version, trailing garbage.
func TestDecodeRejectsCorruption(t *testing.T) {
	valid := EncodeRecord(sampleRecord(t))
	if _, err := DecodeRecord(valid); err != nil {
		t.Fatalf("valid record rejected: %v", err)
	}
	cases := map[string][]byte{
		"empty":     {},
		"short":     valid[:10],
		"truncated": valid[:len(valid)-1],
	}
	flip := append([]byte(nil), valid...)
	flip[len(flip)/2] ^= 0x01
	cases["bit flip"] = flip
	badMagic := append([]byte(nil), valid...)
	badMagic[0] = 'X'
	cases["bad magic"] = badMagic
	extended := append(append([]byte(nil), valid...), 0xEE)
	cases["trailing byte"] = extended
	for name, data := range cases {
		if _, err := DecodeRecord(data); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: err = %v, want ErrCorrupt", name, err)
		}
	}
}

// TestDecodeRejectsUnknownVersion: a future-versioned file with a valid
// checksum is still refused — consensus metadata is not guessable.
func TestDecodeRejectsUnknownVersion(t *testing.T) {
	valid := EncodeRecord(sampleRecord(t))
	bumped := append([]byte(nil), valid[:len(valid)-sha256.Size]...)
	bumped[len(magic)] = version + 1
	// Re-checksum so only the version is wrong.
	sum := sha256.Sum256(bumped)
	bumped = append(bumped, sum[:]...)
	if _, err := DecodeRecord(bumped); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("err = %v, want ErrCorrupt", err)
	}
}

// saveSnapshot marshals and saves one key's replica snapshot.
func saveSnapshot(st *Store, key string, snap core.Snapshot) error {
	rec, err := FromSnapshot(key, snap)
	if err != nil {
		return err
	}
	return st.Save(rec)
}

// TestStoreSaveLoadAll: saved snapshots come back keyed and sorted, with
// weird key strings (empty, path separators) intact.
func TestStoreSaveLoadAll(t *testing.T) {
	st, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	keys := []string{"", "or-set/sessions", "views", "a/b/c", "κλειδί"}
	for i, key := range keys {
		snap := core.Snapshot{
			Round:   core.Round{Number: int64(i)},
			State:   crdt.NewGCounter().Inc("n1", uint64(i+1)),
			NextReq: uint64(i),
		}
		if err := saveSnapshot(st, key, snap); err != nil {
			t.Fatal(err)
		}
	}
	got, skipped, err := st.LoadAll(RecoverStrict)
	if err != nil {
		t.Fatal(err)
	}
	if skipped != 0 || len(got) != len(keys) {
		t.Fatalf("loaded %d (skipped %d), want %d", len(got), skipped, len(keys))
	}
	for i := 1; i < len(got); i++ {
		if got[i-1].Key >= got[i].Key {
			t.Fatalf("keys not sorted: %q then %q", got[i-1].Key, got[i].Key)
		}
	}
	byKey := map[string]KeySnapshot{}
	for _, ks := range got {
		byKey[ks.Key] = ks
	}
	for i, key := range keys {
		ks, ok := byKey[key]
		if !ok {
			t.Fatalf("key %q missing after load", key)
		}
		if v := ks.Snap.State.(*crdt.GCounter).Value(); v != uint64(i+1) {
			t.Fatalf("key %q value = %d, want %d", key, v, i+1)
		}
	}
}

// TestStoreSaveOverwrites: a second save replaces the first atomically.
func TestStoreSaveOverwrites(t *testing.T) {
	st, err := Open(t.TempDir(), Options{Sync: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 3; i++ {
		snap := core.Snapshot{State: crdt.NewGCounter().Inc("n1", uint64(i))}
		if err := saveSnapshot(st, "k", snap); err != nil {
			t.Fatal(err)
		}
	}
	got, _, err := st.LoadAll(RecoverStrict)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 {
		t.Fatalf("loaded %d records, want 1", len(got))
	}
	if v := got[0].Snap.State.(*crdt.GCounter).Value(); v != 3 {
		t.Fatalf("value = %d, want the last save (3)", v)
	}
}

// TestLoadAllRecoverPolicies: a corrupted file fails a strict load with a
// typed error naming the file, and is skipped (counted) under
// ignore-corrupt while intact snapshots still load.
func TestLoadAllRecoverPolicies(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := saveSnapshot(st, "good", core.Snapshot{State: crdt.NewGCounter().Inc("n1", 2)}); err != nil {
		t.Fatal(err)
	}
	if err := saveSnapshot(st, "bad", core.Snapshot{State: crdt.NewGCounter().Inc("n1", 9)}); err != nil {
		t.Fatal(err)
	}
	badPath := st.Path("bad")
	data, err := os.ReadFile(badPath)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xFF
	if err := os.WriteFile(badPath, data, 0o644); err != nil {
		t.Fatal(err)
	}

	if _, _, err := st.LoadAll(RecoverStrict); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("strict load err = %v, want ErrCorrupt", err)
	}
	got, skipped, err := st.LoadAll(RecoverIgnoreCorrupt)
	if err != nil {
		t.Fatal(err)
	}
	if skipped != 1 || len(got) != 1 || got[0].Key != "good" {
		t.Fatalf("ignore-corrupt load = %d records (skipped %d), want just %q", len(got), skipped, "good")
	}
}

// gcounterSnap is a snapshot holding a g-counter at v.
func gcounterSnap(v uint64) core.Snapshot {
	return core.Snapshot{State: crdt.NewGCounter().Inc("n1", v)}
}

// loadValue loads the store's only key under RecoverStrict and returns its
// g-counter value.
func loadValue(t *testing.T, st *Store) uint64 {
	t.Helper()
	got, skipped, err := st.LoadAll(RecoverStrict)
	if err != nil {
		t.Fatal(err)
	}
	if skipped != 0 || len(got) != 1 {
		t.Fatalf("loaded %d records (skipped %d), want 1", len(got), skipped)
	}
	return got[0].Snap.State.(*crdt.GCounter).Value()
}

// TestTornWriteLeavesOldSnapshot is the atomicity test: a trailing frame
// cut short by the end of the file is a torn, never-acknowledged write,
// so the key loads as its previous record; and the next save by a fresh
// Store (a restarted process) rewrites the file rather than appending
// behind the torn bytes.
func TestTornWriteLeavesOldSnapshot(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []uint64{5, 99} {
		if err := saveSnapshot(st, "k", gcounterSnap(v)); err != nil {
			t.Fatal(err)
		}
	}
	path := st.Path("k")
	whole, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := FromSnapshot("k", gcounterSnap(99))
	if err != nil {
		t.Fatal(err)
	}
	frame := len(appendFrame(nil, rec))
	// Tear the second frame at lengths short of complete: inside its
	// length header, and inside its record.
	for _, keep := range []int{0, 3, frameHeader, frame - 1} {
		if err := os.WriteFile(path, whole[:len(whole)-frame+keep], 0o644); err != nil {
			t.Fatal(err)
		}
		if v := loadValue(t, st); v != 5 {
			t.Fatalf("torn at %d of %d bytes: value = %d, want the previous record (5)", keep, frame, v)
		}
	}

	st2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := saveSnapshot(st2, "k", gcounterSnap(7)); err != nil {
		t.Fatal(err)
	}
	if v := loadValue(t, st2); v != 7 {
		t.Fatalf("value = %d after a save over a torn tail, want 7", v)
	}
	if data, err := os.ReadFile(path); err != nil || len(data) != len(fileHeader)+frame {
		t.Fatalf("file is %d bytes (%v), want the header and one frame (%d)", len(data), err, len(fileHeader)+frame)
	}
}

// TestCorruptFrameIsNeverRolledBack: a bit flip inside any complete
// frame, or inside any frame's length header, makes the whole file
// corrupt — a strict load fails and ignore-corrupt skips the key. It
// never falls back to an older frame.
func TestCorruptFrameIsNeverRolledBack(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []uint64{1, 2, 3} {
		if err := saveSnapshot(st, "k", gcounterSnap(v)); err != nil {
			t.Fatal(err)
		}
	}
	path := st.Path("k")
	clean, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := FromSnapshot("k", gcounterSnap(1))
	if err != nil {
		t.Fatal(err)
	}
	frame := len(appendFrame(nil, rec)) // all three frames are this long
	first, last := len(fileHeader), len(fileHeader)+2*frame
	flips := map[string]int{
		"first length header":  first + 1,
		"last length header":   last + 2,
		"first record":         first + frameHeader + 20,
		"middle record":        first + frame + frameHeader + 20,
		"last record":          last + frameHeader + 20,
		"last record checksum": len(clean) - 1,
	}
	for name, at := range flips {
		data := append([]byte(nil), clean...)
		data[at] ^= 0x10
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, _, err := st.LoadAll(RecoverStrict); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: strict load err = %v, want ErrCorrupt", name, err)
		}
		got, skipped, err := st.LoadAll(RecoverIgnoreCorrupt)
		if err != nil || skipped != 1 || len(got) != 0 {
			t.Errorf("%s: ignore-corrupt load = %d records, skipped %d, err %v; want the key skipped", name, len(got), skipped, err)
		}
	}
}

// TestFileWithoutCompleteFrameIsNoSnapshot: an empty file, a bare file
// header or a torn first frame hold no snapshot — the key is simply
// absent, not corrupt.
func TestFileWithoutCompleteFrameIsNoSnapshot(t *testing.T) {
	rec, err := FromSnapshot("k", gcounterSnap(1))
	if err != nil {
		t.Fatal(err)
	}
	whole := appendFrame([]byte(fileHeader), rec)
	for _, n := range []int{0, 3, len(fileHeader), len(fileHeader) + 5, len(whole) - 1} {
		if _, found, err := DecodeFile(whole[:n]); found || err != nil {
			t.Errorf("%d of %d bytes: found=%t err=%v, want no snapshot", n, len(whole), found, err)
		}
	}
	if got, found, err := DecodeFile(whole); !found || err != nil || got.Key != "k" {
		t.Fatalf("complete file: found=%t err=%v key=%q", found, err, got.Key)
	}
}

// TestCompactionBoundsFileSize: however many saves a key takes, its file
// stays within the header plus max(2×its latest frame, compactBytes), and
// loads as the
// latest record — for small records (many frames per file) and large
// ones (a rewrite every other save).
func TestCompactionBoundsFileSize(t *testing.T) {
	for _, tc := range []struct {
		name  string
		pad   int
		saves int
	}{{"small", 0, 2000}, {"large", 40 << 10, 12}} {
		t.Run(tc.name, func(t *testing.T) {
			st, err := Open(t.TempDir(), Options{})
			if err != nil {
				t.Fatal(err)
			}
			path := st.Path("k")
			rewrites := 0
			var prev int64
			for i := 1; i <= tc.saves; i++ {
				reg := crdt.NewLWWRegister().Set(strings.Repeat("x", tc.pad)+fmt.Sprint(i), uint64(i), "n1")
				rec, err := FromSnapshot("k", core.Snapshot{State: reg})
				if err != nil {
					t.Fatal(err)
				}
				if err := st.Save(rec); err != nil {
					t.Fatal(err)
				}
				info, err := os.Stat(path)
				if err != nil {
					t.Fatal(err)
				}
				frame := int64(len(appendFrame(nil, rec)))
				if bound := int64(len(fileHeader)) + max(2*frame, compactBytes); info.Size() > bound {
					t.Fatalf("save %d: file is %d bytes, bound %d", i, info.Size(), bound)
				}
				if info.Size() < prev {
					rewrites++
				}
				prev = info.Size()
			}
			if rewrites == 0 {
				t.Fatal("the file was never compacted")
			}
			got, _, err := st.LoadAll(RecoverStrict)
			if err != nil || len(got) != 1 {
				t.Fatalf("load: %d records, %v", len(got), err)
			}
			if v, _, _ := got[0].Snap.State.(*crdt.LWWRegister).Value(); !strings.HasSuffix(v, fmt.Sprint(tc.saves)) {
				t.Fatalf("loaded value ends %q, want the latest save (%d)", v[max(0, len(v)-8):], tc.saves)
			}
		})
	}
}

// TestVersion2FileMigrates: a snapshot file written before frames (a bare
// version-2 record, testdata/v2-views.snap) still loads, and the key's
// next save rewrites it in the framed form that later saves append to.
func TestVersion2FileMigrates(t *testing.T) {
	v2, err := os.ReadFile(filepath.Join("testdata", "v2-views.snap"))
	if err != nil {
		t.Fatal(err)
	}
	st, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	path := st.Path("views")
	if err := os.WriteFile(path, v2, 0o644); err != nil {
		t.Fatal(err)
	}
	got, _, err := st.LoadAll(RecoverStrict)
	if err != nil || len(got) != 1 {
		t.Fatalf("load of the v2 file: %d records, %v", len(got), err)
	}
	want := sampleRecord(t)
	if ks := got[0]; ks.Key != want.Key || ks.Snap.Round != want.Round ||
		ks.Snap.NextReq != want.NextReq || ks.Snap.NextSeq != want.NextSeq ||
		ks.Snap.State.(*crdt.GCounter).Value() != 4 {
		t.Fatalf("v2 file loaded as %+v", ks)
	}
	for v := uint64(5); v <= 6; v++ {
		if err := saveSnapshot(st, "views", gcounterSnap(v)); err != nil {
			t.Fatal(err)
		}
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(data), fileHeader) {
		t.Fatalf("file after a save starts %q, want the version-3 header", data[:len(fileHeader)])
	}
	rec, err := FromSnapshot("views", gcounterSnap(6))
	if err != nil {
		t.Fatal(err)
	}
	if n := len(fileHeader) + 2*len(appendFrame(nil, rec)); len(data) != n {
		t.Fatalf("file is %d bytes, want the header and two frames (%d)", len(data), n)
	}
	if v := loadValue(t, st); v != 6 {
		t.Fatalf("value = %d after migration, want 6", v)
	}
}

// TestLongKeysGetBoundedFilenames: a key of any length must map to a
// filename under NAME_MAX (hex doubles length, so long keys switch to a
// hashed name) and still save/load correctly — a client-chosen key must
// never be able to wedge persistence with ENAMETOOLONG.
func TestLongKeysGetBoundedFilenames(t *testing.T) {
	st, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	long := strings.Repeat("k", 300)
	short := "views"
	if name := filepath.Base(st.Path(long)); len(name) > 255 {
		t.Fatalf("filename for 300-byte key is %d chars", len(name))
	}
	if st.Path(long) == st.Path(long+"x") {
		t.Fatal("distinct long keys collided")
	}
	for i, key := range []string{long, long + "x", short} {
		if err := saveSnapshot(st, key, core.Snapshot{State: crdt.NewGCounter().Inc("n1", uint64(i+1))}); err != nil {
			t.Fatalf("save %d: %v", i, err)
		}
	}
	got, skipped, err := st.LoadAll(RecoverStrict)
	if err != nil || skipped != 0 {
		t.Fatalf("load: %v (skipped %d)", err, skipped)
	}
	if len(got) != 3 {
		t.Fatalf("loaded %d records, want 3", len(got))
	}
	byKey := map[string]uint64{}
	for _, ks := range got {
		byKey[ks.Key] = ks.Snap.State.(*crdt.GCounter).Value()
	}
	if byKey[long] != 1 || byKey[long+"x"] != 2 || byKey[short] != 3 {
		t.Fatalf("values after load: %v", byKey)
	}
}

// TestOpenRejectsEmptyDir guards the Config plumbing: persistence must be
// explicitly pointed at a directory.
func TestOpenRejectsEmptyDir(t *testing.T) {
	if _, err := Open("", Options{}); err == nil {
		t.Fatal("Open accepted an empty directory")
	}
}

func TestParseRecoverPolicy(t *testing.T) {
	if p, err := ParseRecoverPolicy("strict"); err != nil || p != RecoverStrict {
		t.Fatalf("strict: %v %v", p, err)
	}
	if p, err := ParseRecoverPolicy("ignore-corrupt"); err != nil || p != RecoverIgnoreCorrupt {
		t.Fatalf("ignore-corrupt: %v %v", p, err)
	}
	if _, err := ParseRecoverPolicy("yolo"); err == nil {
		t.Fatal("unknown policy accepted")
	}
}
