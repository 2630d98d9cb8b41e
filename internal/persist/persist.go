package persist

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
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
	// magic opens every snapshot file. A file that does not start with it
	// was never a snapshot; one that does but fails the checksum was.
	magic = "CRSNAP"
	// version is the current snapshot format version. Decoders reject
	// unknown versions: the format carries consensus metadata, and
	// guessing at it would be a safety bug, not a compatibility feature.
	version = 2
	// suffix names snapshot files; everything else in the directory
	// (including temp files from interrupted saves) is ignored on load.
	suffix = ".snap"
)

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

// DecodeRecord parses and verifies a snapshot file's contents. Every
// rejection matches ErrCorrupt. The checksum is verified before any
// structure is parsed, so a flipped bit anywhere in the file is caught
// even when it would still decode.
func DecodeRecord(p []byte) (Record, error) {
	if len(p) < len(magic)+1+sha256.Size {
		return Record{}, corruptf("%d bytes is shorter than the fixed header and trailer", len(p))
	}
	body, trailer := p[:len(p)-sha256.Size], p[len(p)-sha256.Size:]
	if sum := sha256.Sum256(body); !bytes.Equal(sum[:], trailer) {
		return Record{}, corruptf("checksum mismatch")
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
	// SyncNone (the default) relies on the atomic rename alone: a crashed
	// or killed process always leaves a complete old or new snapshot, but
	// a power loss may roll back to an older one. This is the paper's
	// crash-recovery model and what the tests exercise.
	SyncNone SyncPolicy = iota
	// SyncAlways additionally fsyncs the snapshot file and its directory
	// on every save, surviving power loss at the cost of one or two disk
	// flushes per durable transition. With an emulated device
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
	// BeforeBatchRename, when set, runs after a Save's or SaveBatch's
	// temp files are all written (and synced, under SyncAlways) but before
	// any of them is renamed into place — the injection point for modeling
	// a crash that tears a write. An error fails the batch: the temps are
	// removed and no key's snapshot changes.
	BeforeBatchRename func(keys []string) error
}

// Store manages one replica's snapshot directory: one file per object
// key, each rewritten atomically. Save and SaveBatch are safe for
// concurrent use by writers of DISJOINT key sets (each shard's persister
// owns its shard's keys): temp files are unique per call and renames
// target distinct paths. Two concurrent writers of the same key, or a
// LoadAll concurrent with any writer, are not coordinated — callers
// quiesce writers before loading (cluster.Node.Restart does).
type Store struct {
	dir  string
	opts Options
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
	return &Store{dir: dir, opts: opts}, nil
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

// Save atomically replaces one key's snapshot file, as a SaveBatch of one
// record: a crash at any point leaves the previous snapshot intact — the
// torn write lands in a temp file, which Open sweeps away.
func (s *Store) Save(rec Record) error { return s.SaveBatch([]Record{rec}) }

// realSync reports whether saves issue physical fsync barriers: yes
// under SyncAlways with a real device, no when an emulated device
// (WriteDelay > 0) substitutes its deterministic flush.
func (s *Store) realSync() bool {
	return s.opts.Sync == SyncAlways && s.opts.WriteDelay == 0
}

// SaveBatch atomically replaces many keys' snapshot files as one group
// commit, paying the expensive per-commit costs roughly once for the
// whole batch: every record is written to its own temp file, the temps
// are fsynced concurrently under SyncAlways (the kernel overlaps the
// device barriers, so the batch waits about one flush, not N), then
// every temp is renamed into place and ONE directory sync covers all
// the renames — versus one serial fsync plus one directory sync per key
// with serial Saves. The emulated flush (Options.WriteDelay) is
// likewise charged once per batch.
//
// Failure granularity is the whole batch: on any error every temp file
// is removed and no key's committed snapshot changes (renames only start
// after every write succeeded, and a rename failure aborts before the
// directory sync that would publish the batch across a power loss), so
// the caller treats all the batch's keys as not-yet-durable. Keys
// outside the batch are untouched either way.
func (s *Store) SaveBatch(recs []Record) error {
	if len(recs) == 0 {
		return nil
	}
	tmps := make([]string, 0, len(recs))
	files := make([]*os.File, 0, len(recs))
	cleanup := func() {
		for _, f := range files {
			_ = f.Close()
		}
		for _, tmp := range tmps {
			_ = os.Remove(tmp)
		}
	}
	for i := range recs {
		data := EncodeRecord(recs[i])
		f, err := os.CreateTemp(s.dir, tmpPrefix)
		if err != nil {
			cleanup()
			return fmt.Errorf("persist: save batch (%q): %w", recs[i].Key, err)
		}
		tmps = append(tmps, f.Name())
		files = append(files, f)
		if _, err := f.Write(data); err != nil {
			cleanup()
			return fmt.Errorf("persist: save batch (%q): %w", recs[i].Key, err)
		}
	}
	// All writes landed; make them durable before any rename publishes
	// them. The fsyncs run concurrently: they have no ordering constraint
	// among themselves (only completion-before-rename matters), and
	// issuing them together is what lets a batch of N keys cost ~one
	// device barrier — the core of the group-commit win.
	if s.realSync() {
		syncErrs := make([]error, len(files))
		var wg sync.WaitGroup
		for i, f := range files {
			wg.Add(1)
			go func(i int, f *os.File) {
				defer wg.Done()
				syncErrs[i] = f.Sync()
			}(i, f)
		}
		wg.Wait()
		for i, err := range syncErrs {
			if err != nil {
				cleanup()
				return fmt.Errorf("persist: save batch (%q): %w", recs[i].Key, err)
			}
		}
	}
	for i, f := range files {
		if err := f.Close(); err != nil {
			files = files[i+1:] // earlier files are closed; clean the rest
			cleanup()
			return fmt.Errorf("persist: save batch (%q): %w", recs[i].Key, err)
		}
	}
	files = nil
	if s.opts.BeforeBatchRename != nil {
		keys := make([]string, len(recs))
		for i := range recs {
			keys[i] = recs[i].Key
		}
		if err := s.opts.BeforeBatchRename(keys); err != nil {
			cleanup()
			return fmt.Errorf("persist: save batch: %w", err)
		}
	}
	if s.opts.WriteDelay > 0 {
		time.Sleep(s.opts.WriteDelay) // the emulated device flush
	}
	for i := range recs {
		if err := os.Rename(tmps[i], s.Path(recs[i].Key)); err != nil {
			// Already-renamed keys hold their NEW snapshot — that is safe
			// (their state was fully written) but the caller must still
			// treat the whole batch as failed, and does: it simply
			// re-saves those keys on their next event.
			cleanup()
			return fmt.Errorf("persist: save batch (%q): %w", recs[i].Key, err)
		}
	}
	if s.realSync() {
		if err := syncDir(s.dir); err != nil {
			return fmt.Errorf("persist: save batch: %w", err)
		}
	}
	return nil
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

// LoadAll reads every snapshot in the directory, sorted by key. Under
// RecoverStrict the first corrupt or undecodable file fails the load with
// an error matching ErrCorrupt and naming the file; under
// RecoverIgnoreCorrupt such files are skipped and counted in the second
// return value.
func (s *Store) LoadAll(policy RecoverPolicy) ([]KeySnapshot, int, error) {
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
		ks, err := loadFile(path)
		if err != nil {
			if policy == RecoverIgnoreCorrupt && errors.Is(err, ErrCorrupt) {
				skipped++
				continue
			}
			return nil, skipped, err
		}
		out = append(out, ks)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out, skipped, nil
}

func loadFile(path string) (KeySnapshot, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return KeySnapshot{}, fmt.Errorf("persist: %s: %w", path, err)
	}
	rec, err := DecodeRecord(data)
	if err != nil {
		return KeySnapshot{}, fmt.Errorf("%s: %w", path, err)
	}
	snap, err := rec.Snapshot()
	if err != nil {
		return KeySnapshot{}, fmt.Errorf("%s: %w", path, err)
	}
	return KeySnapshot{Key: rec.Key, Snap: snap}, nil
}
