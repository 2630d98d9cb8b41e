// Package persist stores replica snapshots as versioned, checksummed
// files of appended records — the durability half of the paper's log-free
// recovery claim: because the protocol keeps no log, a replica's entire
// durable state is its current CRDT payload plus constant-size consensus
// metadata, so recovery is "write one snapshot, read one snapshot", with
// nothing to replay (docs/PROTOCOL.md §4 specifies the file format,
// docs/ARCHITECTURE.md the recovery lifecycle).
//
// Each object key owns one file in the snapshot directory: a header and
// a sequence of frames, each one complete record appended on a
// durable-state transition. The last complete frame is the key's
// snapshot; recovery decodes that one record and never replays the
// others. A frame cut short by the end of the file is a torn write that
// was never acknowledged and is dropped; every other defect — a frame
// length failing its CRC-32C, a record failing its SHA-256 — fails the
// whole file with an error matching ErrCorrupt, never rolling the key
// back to an older frame. A file is rewritten to its latest frame alone
// (write-to-temp + rename) on the key's first save by a Store and when it
// outgrows max(2×that frame, 64 KiB), so its size tracks the state's,
// not the number of saves.
//
// SaveBatch is the group-commit entry point used by the cluster's
// per-shard persister goroutines: many keys' frames appended and flushed
// together, so a batch costs about one device barrier instead of one per
// key. Failure granularity is per key: after a failed batch each key's
// file loads as its old snapshot or its new one, and the caller treats
// the whole batch as not yet durable. Options.WriteDelay emulates a
// per-write device flush deterministically for benchmarks; when set
// alongside SyncAlways it stands in for the physical fsync barriers (see
// the Options docs).
package persist
