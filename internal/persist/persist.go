package persist

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"crdtsmr/internal/core"
	"crdtsmr/internal/crdt"
	"crdtsmr/internal/transport"
	"crdtsmr/internal/wire"
)

// ErrCorrupt matches every snapshot the decoder rejects: truncated,
// checksum-mismatched, wrong magic, unknown version, or structurally
// malformed. Callers decide policy (fail startup, or skip under
// RecoverIgnoreCorrupt); the sentinel is the typed boundary they key on.
var ErrCorrupt = errors.New("persist: corrupt snapshot")

// File format constants (docs/PROTOCOL.md §4).
const (
	// magic opens every snapshot file and every record. A file that does
	// not start with it was never a snapshot; one that does but fails a
	// check was.
	magic = "CRSNAP"
	// version is the record format version. Decoders reject unknown
	// versions: the format carries consensus metadata, and guessing at it
	// would be a safety bug, not a compatibility feature. A version-2
	// FILE is one bare record (the format before frames).
	version = 2
	// fileVersion marks a file as a sequence of framed records, the last
	// complete one of which is the key's snapshot.
	fileVersion = 3
	// fileHeader opens every version-3 file.
	fileHeader = magic + string(rune(fileVersion))
	// frameHeader is a frame's length (u32, big endian) followed by the
	// CRC-32C of those four bytes.
	frameHeader = 8
	// compactBytes bounds the frames a file holds, unless its latest
	// frame is larger than half of it. A save that would grow a key's
	// frames past max(2×its frame, compactBytes) rewrites the file to
	// that frame alone, so a file never holds more than the header plus
	// that many bytes.
	compactBytes = 64 << 10
	// suffix names snapshot files; everything else in the directory
	// (including temp files from interrupted saves) is ignored on load.
	suffix = ".snap"
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Record is one key's decoded snapshot: the object key plus the replica's
// durable state with the payload and learned states still in their
// marshaled form, so the byte-level codec stays independent of the CRDT
// registry (the fuzz target exercises it on arbitrary bytes).
type Record struct {
	Key     string
	Round   core.Round
	NextReq uint64
	NextSeq uint64
	Epoch   uint64   // membership config epoch
	Source  string   // proposer that minted the config
	Members []string // the config's member set
	State   []byte   // crdt.Marshal encoding of the acceptor payload
	Learned []byte   // nil when equivalent to State (the common case)
}

// EncodeRecord serializes a record:
//
//	magic "CRSNAP" | version u8 | key str | round (number varint,
//	proposer str, seq uvarint) | nextReq uvarint | nextSeq uvarint |
//	configFrame | payload stateFrame | learned stateFrame | sha256[32]
//
// The config frame (internal/wire/config.go) carries the membership
// configuration the replica had adopted. The two state frames reuse the
// replica wire's state-frame codec (internal/wire/state.go): the payload is
// a full frame, the learned state a none frame when it equals the payload.
// The trailing SHA-256 covers every preceding byte.
func EncodeRecord(rec Record) []byte {
	w := wire.NewWriter(len(rec.State) + len(rec.Learned) + len(rec.Key) + 64)
	w.Fixed([]byte(magic))
	w.Byte(version)
	w.Str(rec.Key)
	w.Varint(rec.Round.Number)
	w.Str(string(rec.Round.ID.Proposer))
	w.Uvarint(rec.Round.ID.Seq)
	w.Uvarint(rec.NextReq)
	w.Uvarint(rec.NextSeq)
	wire.ConfigFrame{Epoch: rec.Epoch, Source: rec.Source, Members: rec.Members}.Append(w)
	wire.StateFrame{Kind: wire.StateFull, State: rec.State}.Append(w)
	learned := wire.StateFrame{Kind: wire.StateNone}
	if rec.Learned != nil {
		learned = wire.StateFrame{Kind: wire.StateFull, State: rec.Learned}
	}
	learned.Append(w)
	sum := sha256.Sum256(w.Bytes())
	w.Fixed(sum[:])
	return w.Bytes()
}

// corruptf wraps a decode failure so errors.Is(err, ErrCorrupt) holds.
func corruptf(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrCorrupt, fmt.Sprintf(format, args...))
}

// verifyRecord checks an encoded record's SHA-256 trailer and returns
// the bytes it covers.
func verifyRecord(p []byte) ([]byte, error) {
	if len(p) < len(magic)+1+sha256.Size {
		return nil, corruptf("%d bytes is shorter than the fixed header and trailer", len(p))
	}
	body, trailer := p[:len(p)-sha256.Size], p[len(p)-sha256.Size:]
	if sum := sha256.Sum256(body); !bytes.Equal(sum[:], trailer) {
		return nil, corruptf("checksum mismatch")
	}
	return body, nil
}

// DecodeRecord parses and verifies one encoded record. Every rejection
// matches ErrCorrupt. The checksum is verified before any structure is
// parsed, so a flipped bit anywhere in the record is caught even when it
// would still decode.
func DecodeRecord(p []byte) (Record, error) {
	body, err := verifyRecord(p)
	if err != nil {
		return Record{}, err
	}
	if string(body[:len(magic)]) != magic {
		return Record{}, corruptf("bad magic %q", body[:len(magic)])
	}
	v := body[len(magic)]
	if v != version {
		return Record{}, corruptf("unsupported snapshot version %d (want %d)", v, version)
	}
	r := wire.NewReader(body[len(magic)+1:])
	rec := Record{Key: r.Str()}
	rec.Round.Number = r.Varint()
	rec.Round.ID.Proposer = transport.NodeID(r.Str())
	rec.Round.ID.Seq = r.Uvarint()
	rec.NextReq = r.Uvarint()
	rec.NextSeq = r.Uvarint()
	cf := wire.ReadConfigFrame(r)
	rec.Epoch, rec.Source, rec.Members = cf.Epoch, cf.Source, cf.Members
	payload := wire.ReadStateFrame(r)
	learned := wire.ReadStateFrame(r)
	if err := r.Done(); err != nil {
		return Record{}, corruptf("%v", err)
	}
	if payload.Kind != wire.StateFull {
		return Record{}, corruptf("payload frame kind %v, want full", payload.Kind)
	}
	rec.State = payload.State
	switch learned.Kind {
	case wire.StateNone:
	case wire.StateFull:
		rec.Learned = learned.State
	default:
		return Record{}, corruptf("learned frame kind %v, want none or full", learned.Kind)
	}
	return rec, nil
}

// appendFrame appends rec's encoding to dst as one frame: its length,
// the CRC-32C of the length, then the record.
func appendFrame(dst []byte, rec Record) []byte {
	data := EncodeRecord(rec)
	var hdr [frameHeader]byte
	binary.BigEndian.PutUint32(hdr[:4], uint32(len(data)))
	binary.BigEndian.PutUint32(hdr[4:], crc32.Checksum(hdr[:4], castagnoli))
	return append(append(dst, hdr[:]...), data...)
}

// DecodeFile parses a snapshot file's contents and returns its last
// complete record; found is false when the file holds none, which is a
// key with no snapshot rather than a corrupt one. A frame cut short by
// the end of the file is a torn write that was never acknowledged and is
// dropped. Every other defect matches ErrCorrupt: a frame length that
// fails its check, or a complete frame whose record fails its checksum
// (every complete frame is checked, so bit rot anywhere is caught; only
// the last one is decoded). A version-2 file is one bare record.
func DecodeFile(p []byte) (Record, bool, error) {
	if len(p) < len(fileHeader) {
		if strings.HasPrefix(fileHeader, string(p)) {
			return Record{}, false, nil
		}
		return Record{}, false, corruptf("%d bytes is shorter than the file header", len(p))
	}
	if string(p[:len(magic)]) != magic {
		return Record{}, false, corruptf("bad magic %q", p[:len(magic)])
	}
	switch v := p[len(magic)]; v {
	case version:
		rec, err := DecodeRecord(p)
		return rec, err == nil, err
	case fileVersion:
	default:
		return Record{}, false, corruptf("unsupported snapshot file version %d (want %d or %d)", v, version, fileVersion)
	}
	// Walk the frames by their lengths. Each frame's checksum is verified
	// once a later complete frame shows it is not the last; the last one
	// is verified by decoding it.
	var last []byte
	lastOff := 0
	for off := len(fileHeader); len(p)-off >= frameHeader; {
		n := binary.BigEndian.Uint32(p[off:])
		if crc32.Checksum(p[off:off+4], castagnoli) != binary.BigEndian.Uint32(p[off+4:]) {
			return Record{}, false, corruptf("frame length at offset %d fails its check", off)
		}
		if uint64(len(p)-off-frameHeader) < uint64(n) {
			break // torn trailing frame
		}
		if last != nil {
			if _, err := verifyRecord(last); err != nil {
				return Record{}, false, fmt.Errorf("frame at offset %d: %w", lastOff, err)
			}
		}
		last, lastOff = p[off+frameHeader:off+frameHeader+int(n)], off
		off += frameHeader + int(n)
	}
	if last == nil {
		return Record{}, false, nil
	}
	rec, err := DecodeRecord(last)
	if err != nil {
		return Record{}, false, fmt.Errorf("frame at offset %d: %w", lastOff, err)
	}
	return rec, true, nil
}

// FromSnapshot converts a replica's in-memory snapshot into a record,
// marshaling the states. The learned state is stored only when it differs
// from the payload (deterministic marshal makes the byte comparison an
// exact equivalence check).
func FromSnapshot(key string, snap core.Snapshot) (Record, error) {
	raw, err := crdt.Marshal(snap.State)
	if err != nil {
		return Record{}, fmt.Errorf("persist: marshal payload of %q: %w", key, err)
	}
	rec := Record{
		Key:     key,
		Round:   snap.Round,
		NextReq: snap.NextReq,
		NextSeq: snap.NextSeq,
		Epoch:   snap.Config.Epoch,
		Source:  string(snap.Config.Source),
		State:   raw,
	}
	if len(snap.Config.Members) > 0 {
		rec.Members = make([]string, len(snap.Config.Members))
		for i, m := range snap.Config.Members {
			rec.Members[i] = string(m)
		}
	}
	if snap.Learned != nil && snap.Learned != snap.State {
		lraw, err := crdt.Marshal(snap.Learned)
		if err != nil {
			return Record{}, fmt.Errorf("persist: marshal learned state of %q: %w", key, err)
		}
		if !bytes.Equal(raw, lraw) {
			rec.Learned = lraw
		}
	}
	return rec, nil
}

// Snapshot decodes the record's marshaled states into a core.Snapshot.
// The payload types must be registered in the CRDT registry; a snapshot
// of an unregistered or undecodable type is reported as corrupt (the
// caller cannot distinguish bit rot from a registry mismatch, and both
// mean this file cannot rehydrate a replica).
func (rec Record) Snapshot() (core.Snapshot, error) {
	state, err := crdt.Unmarshal(rec.State)
	if err != nil {
		return core.Snapshot{}, corruptf("payload of %q: %v", rec.Key, err)
	}
	snap := core.Snapshot{
		Round:   rec.Round,
		State:   state,
		NextReq: rec.NextReq,
		NextSeq: rec.NextSeq,
		Config:  core.Config{Epoch: rec.Epoch, Source: transport.NodeID(rec.Source)},
	}
	if len(rec.Members) > 0 {
		snap.Config.Members = make([]transport.NodeID, len(rec.Members))
		for i, m := range rec.Members {
			snap.Config.Members[i] = transport.NodeID(m)
		}
	}
	if rec.Learned != nil {
		learned, err := crdt.Unmarshal(rec.Learned)
		if err != nil {
			return core.Snapshot{}, corruptf("learned state of %q: %v", rec.Key, err)
		}
		snap.Learned = learned
	}
	return snap, nil
}

// SyncPolicy selects how hard Save pushes bytes toward the platter.
type SyncPolicy uint8

const (
	// SyncNone (the default) relies on the file format alone: a crashed
	// or killed process always leaves a complete old or new snapshot (a
	// torn append is dropped, a rewrite is an atomic rename), but a power
	// loss may roll back to an older one. This is the paper's
	// crash-recovery model and what the tests exercise.
	SyncNone SyncPolicy = iota
	// SyncAlways additionally fsyncs every file a save writes, and the
	// directory when the save created or replaced a file, surviving power
	// loss at the cost of one disk flush per durable transition (the
	// batch's flushes overlap). With an emulated device
	// (Options.WriteDelay > 0) the deterministic emulated flush stands in
	// for the physical barriers — see Options.WriteDelay.
	SyncAlways
)

// RecoverPolicy selects what loading does with a corrupt snapshot file.
type RecoverPolicy uint8

const (
	// RecoverStrict (the default) fails the load: a replica must not
	// silently come up with less state than it promised a quorum it had.
	RecoverStrict RecoverPolicy = iota
	// RecoverIgnoreCorrupt skips corrupt files, so the affected keys start
	// fresh and re-learn their state from the cluster. Only safe when a
	// quorum of other replicas is intact — which is why it is an explicit
	// operator decision (-recover=ignore-corrupt), never a default.
	RecoverIgnoreCorrupt
)

// ParseRecoverPolicy parses the -recover flag values.
func ParseRecoverPolicy(s string) (RecoverPolicy, error) {
	switch s {
	case "strict":
		return RecoverStrict, nil
	case "ignore-corrupt":
		return RecoverIgnoreCorrupt, nil
	default:
		return RecoverStrict, fmt.Errorf("persist: unknown recover policy %q (want strict or ignore-corrupt)", s)
	}
}

// Options configure a Store.
type Options struct {
	Sync SyncPolicy
	// WriteDelay, when positive, emulates device flush latency: Save
	// sleeps it once per call and SaveBatch once per batch, at the point
	// where a real device would serve the flush. Benchmarks and tests use
	// it to make the group-commit advantage measurable independently of
	// the host's actual disk (and CPU count): N keys saved one batch pay
	// the delay once, saved serially they pay it N times.
	//
	// When WriteDelay is set alongside SyncAlways, the emulated flush
	// STANDS IN for the physical barriers — no fsync syscalls are issued.
	// This is the same substitution the transport makes for the network
	// (an emulated delay instead of a real NIC): the durability pipeline
	// keeps its exact structure and ordering, but the flush cost becomes
	// deterministic instead of whatever the host filesystem's journal
	// happens to serialize to under contention. Production stores leave
	// WriteDelay zero and get real fsyncs.
	WriteDelay time.Duration
	// BeforeBatchWrite, when set, runs with a Save's or SaveBatch's keys
	// before any of its files is touched — the injection point for
	// modeling a crash that tears a write, and for stalling the disk. An
	// error fails the batch with no key's snapshot changed.
	BeforeBatchWrite func(keys []string) error
}

// Store manages one replica's snapshot directory: one file per object
// key, each a sequence of appended records whose last complete one is
// the key's snapshot. Save and SaveBatch are safe for concurrent use by
// writers of DISJOINT key sets (each shard's persister owns its shard's
// keys). Two writers of the same key, or a LoadAll concurrent with any
// writer, are not coordinated — callers quiesce writers before loading
// (cluster.Node.Restart does).
type Store struct {
	dir  string
	opts Options

	mu sync.Mutex
	// sizes holds the length of every file this Store wrote whole and has
	// appended to since: only those are appended to. Any other key's next
	// save rewrites its file, which also migrates a version-2 file and
	// drops a torn or corrupt tail left by an earlier process.
	sizes map[string]int64
}

// Open creates (if needed) and opens a snapshot directory. Temp files
// left behind by interrupted saves are removed; committed snapshots are
// never touched.
func Open(dir string, opts Options) (*Store, error) {
	if dir == "" {
		return nil, errors.New("persist: empty snapshot directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("persist: %w", err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("persist: %w", err)
	}
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), tmpPrefix) {
			_ = os.Remove(filepath.Join(dir, e.Name()))
		}
	}
	return &Store{dir: dir, opts: opts, sizes: make(map[string]int64)}, nil
}

// Dir returns the snapshot directory.
func (s *Store) Dir() string { return s.dir }

const tmpPrefix = ".tmp-"

// maxHexName bounds the hex-encoded form of a key in a filename. Longer
// keys switch to a hashed name so no key length can exceed NAME_MAX; the
// true key always lives inside the file, the name only needs to be
// deterministic and collision-free.
const maxHexName = 128

// Path returns the snapshot file path for an object key. Short keys are
// hex encoded ("k<hex>.snap") so arbitrary key strings (path separators,
// empty, unicode) map to flat, unambiguous, still-greppable file names;
// keys whose hex form would overflow typical filename limits use the
// SHA-256 of the key instead ("h<hash>.snap").
func (s *Store) Path(key string) string {
	name := hex.EncodeToString([]byte(key))
	if len(name) > maxHexName {
		sum := sha256.Sum256([]byte(key))
		return filepath.Join(s.dir, "h"+hex.EncodeToString(sum[:])+suffix)
	}
	return filepath.Join(s.dir, "k"+name+suffix)
}

// Save stores one key's snapshot, as a SaveBatch of one record: a crash
// at any point leaves the previous snapshot intact.
func (s *Store) Save(rec Record) error { return s.SaveBatch([]Record{rec}) }

// realSync reports whether saves issue physical fsync barriers: yes
// under SyncAlways with a real device, no when an emulated device
// (WriteDelay > 0) substitutes its deterministic flush.
func (s *Store) realSync() bool {
	return s.opts.Sync == SyncAlways && s.opts.WriteDelay == 0
}

// fileWrite is one record's file work within a batch: a frame appended
// to the key's file, or (tmp set) the whole file written to a temp file
// that is renamed over it.
type fileWrite struct {
	key  string
	f    *os.File
	tmp  string
	size int64 // the key's file size once the write lands
}

// SaveBatch stores many keys' snapshots as one group commit, paying the
// expensive per-commit costs roughly once for the whole batch. Each
// record is appended as one frame to its key's file; under SyncAlways
// the touched files are fsynced concurrently (the kernel overlaps the
// device barriers, so the batch waits about one flush, not N). The
// emulated flush (Options.WriteDelay) is likewise charged once per batch.
//
// A key's file is written whole instead — to a temp file renamed into
// place, followed under SyncAlways by one directory sync for the batch —
// on the key's first save by this Store, and when appending would grow
// the file's frames past max(2×the frame, compactBytes).
//
// Failure granularity is per key: on any error each key's file still
// loads as its previous snapshot or its new one (a torn append is
// dropped on load, a rewrite is an atomic rename), and every key's next
// save rewrites its file whole. The caller treats all the batch's keys
// as not yet durable. Keys outside the batch are untouched either way.
// Of several records for one key, the last is saved.
func (s *Store) SaveBatch(recs []Record) error {
	recs = lastPerKey(recs)
	if len(recs) == 0 {
		return nil
	}
	if s.opts.BeforeBatchWrite != nil {
		keys := make([]string, len(recs))
		for i := range recs {
			keys[i] = recs[i].Key
		}
		if err := s.opts.BeforeBatchWrite(keys); err != nil {
			return fmt.Errorf("persist: save batch: %w", err)
		}
	}
	ws := make([]fileWrite, 0, len(recs))
	fail := func(key string, err error) error {
		for _, w := range ws {
			if w.f != nil {
				_ = w.f.Close()
			}
			if w.tmp != "" {
				_ = os.Remove(w.tmp)
			}
		}
		s.mu.Lock()
		for i := range recs {
			delete(s.sizes, recs[i].Key)
		}
		s.mu.Unlock()
		return fmt.Errorf("persist: save batch (%q): %w", key, err)
	}
	for i := range recs {
		w, err := s.startWrite(recs[i])
		if w.f != nil {
			ws = append(ws, w)
		}
		if err != nil {
			return fail(recs[i].Key, err)
		}
	}
	// The fsyncs run concurrently: they have no ordering constraint among
	// themselves, and issuing them together is what lets a batch of N keys
	// cost ~one device barrier — the core of the group-commit win.
	if s.realSync() {
		syncErrs := make([]error, len(ws))
		var wg sync.WaitGroup
		for i := range ws {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				syncErrs[i] = ws[i].f.Sync()
			}(i)
		}
		wg.Wait()
		for i, err := range syncErrs {
			if err != nil {
				return fail(ws[i].key, err)
			}
		}
	}
	for i := range ws {
		err := ws[i].f.Close()
		ws[i].f = nil
		if err != nil {
			return fail(ws[i].key, err)
		}
	}
	if s.opts.WriteDelay > 0 {
		time.Sleep(s.opts.WriteDelay) // the emulated device flush
	}
	renamed := false
	for i := range ws {
		if ws[i].tmp == "" {
			continue
		}
		if err := os.Rename(ws[i].tmp, s.Path(ws[i].key)); err != nil {
			return fail(ws[i].key, err)
		}
		ws[i].tmp, renamed = "", true
	}
	if renamed && s.realSync() {
		if err := syncDir(s.dir); err != nil {
			return fail(recs[0].Key, err)
		}
	}
	s.mu.Lock()
	for _, w := range ws {
		s.sizes[w.key] = w.size
	}
	s.mu.Unlock()
	return nil
}

// startWrite opens rec's file, or a temp file standing in for it, and
// writes rec's frame into it. The returned fileWrite holds the open file
// even on error, so the caller can close it.
func (s *Store) startWrite(rec Record) (fileWrite, error) {
	w := fileWrite{key: rec.Key}
	s.mu.Lock()
	size, known := s.sizes[rec.Key]
	s.mu.Unlock()
	frame := appendFrame(nil, rec)
	var err error
	if n := int64(len(frame)); known && size+n <= int64(len(fileHeader))+max(2*n, compactBytes) {
		w.size = size + n
		if w.f, err = os.OpenFile(s.Path(rec.Key), os.O_WRONLY|os.O_APPEND, 0); err != nil {
			return w, err
		}
	} else {
		frame = append([]byte(fileHeader), frame...)
		w.size = int64(len(frame))
		if w.f, err = os.CreateTemp(s.dir, tmpPrefix); err != nil {
			return w, err
		}
		w.tmp = w.f.Name()
	}
	_, err = w.f.Write(frame)
	return w, err
}

// lastPerKey drops every record that a later record of the same key
// supersedes, keeping the survivors in order.
func lastPerKey(recs []Record) []Record {
	last := make(map[string]int, len(recs))
	for i := range recs {
		last[recs[i].Key] = i
	}
	if len(last) == len(recs) {
		return recs
	}
	out := make([]Record, 0, len(last))
	for i := range recs {
		if last[recs[i].Key] == i {
			out = append(out, recs[i])
		}
	}
	return out
}

func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// KeySnapshot is one rehydratable key: the object key and its decoded
// replica snapshot.
type KeySnapshot struct {
	Key  string
	Snap core.Snapshot
}

// LoadAll reads every snapshot in the directory, sorted by key; a file
// holding no complete record is a key with no snapshot. Under
// RecoverStrict the first corrupt or undecodable file fails the load with
// an error matching ErrCorrupt and naming the file; under
// RecoverIgnoreCorrupt such files are skipped and counted in the second
// return value. The Store forgets the files it wrote, so each key's next
// save rewrites its file whole: loading is how a Store meets files whose
// tails it cannot vouch for.
func (s *Store) LoadAll(policy RecoverPolicy) ([]KeySnapshot, int, error) {
	s.mu.Lock()
	clear(s.sizes)
	s.mu.Unlock()
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, 0, fmt.Errorf("persist: %w", err)
	}
	var out []KeySnapshot
	skipped := 0
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, suffix) ||
			(!strings.HasPrefix(name, "k") && !strings.HasPrefix(name, "h")) {
			continue
		}
		path := filepath.Join(s.dir, name)
		ks, found, err := loadFile(path)
		if err != nil {
			if policy == RecoverIgnoreCorrupt && errors.Is(err, ErrCorrupt) {
				skipped++
				continue
			}
			return nil, skipped, err
		}
		if found {
			out = append(out, ks)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out, skipped, nil
}

func loadFile(path string) (KeySnapshot, bool, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return KeySnapshot{}, false, fmt.Errorf("persist: %s: %w", path, err)
	}
	rec, found, err := DecodeFile(data)
	if err != nil {
		return KeySnapshot{}, false, fmt.Errorf("%s: %w", path, err)
	}
	if !found {
		return KeySnapshot{}, false, nil
	}
	snap, err := rec.Snapshot()
	if err != nil {
		return KeySnapshot{}, false, fmt.Errorf("%s: %w", path, err)
	}
	return KeySnapshot{Key: rec.Key, Snap: snap}, true, nil
}
