package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"time"
)

// A workload is one traffic mix against one cluster wiring. The names
// are fixed: BENCHMARK.json lists them and later issues cite them.
type workload struct {
	name string

	// Wiring. injected selects transport.Mesh with a seeded uniform
	// per-hop delay in [minDelay, maxDelay]; otherwise the replicas talk
	// over a loopback transport.TCP mesh. durable gives every node a
	// DataDir with persist.SyncAlways and the emulated 1 ms device flush.
	injected           bool
	minDelay, maxDelay time.Duration
	durable            bool

	// Data and mix.
	keyPrefix  string // first path segment selects the CRDT type (server.TypedKeyInitial)
	keys       int    // keys live at any one time
	readShare  uint64 // reads per 1000 ops
	sessions   int    // closed-loop callers
	preloadLen int    // or-set elements preloaded into every key (0: none)
	// rotateEvery > 0 moves the whole working set to the next block of
	// `keys` preloaded keys every rotateEvery ops, so a state that grows
	// with every update (the or-set keeps every tag) is measured at the
	// same size however many ops a run completes. blocks bounds the
	// preloaded pool; the stream wraps around after blocks*rotateEvery ops.
	rotateEvery uint64
	blocks      int

	// History check: which counter keys record call/return histories for
	// the linearizability checker, and for how long.
	sampleEvery   int  // every n-th key is sampled (0: none)
	historyWarmup bool // record only during warm-up (a bounded window of a hot key)
	warmup        time.Duration
}

var workloads = []workload{
	{
		name:      "kv-read-heavy",
		keyPrefix: "g-counter", keys: 1024, readShare: 900, sessions: 4,
		sampleEvery: 20, warmup: 2 * time.Second,
	},
	{
		name:     "hot-key-contended",
		injected: true, minDelay: 500 * time.Microsecond, maxDelay: 1500 * time.Microsecond,
		keyPrefix: "g-counter", keys: 1, readShare: 500, sessions: 8,
		sampleEvery: 1, historyWarmup: true, warmup: 2 * time.Second,
	},
	{
		name:      "large-set",
		keyPrefix: "or-set", keys: 8, readShare: 800, sessions: 2,
		preloadLen: 1000, rotateEvery: 1000, blocks: 16,
		warmup: 2 * time.Second,
	},
	{
		name:      "durable-write",
		durable:   true,
		keyPrefix: "g-counter", keys: 64, readShare: 100, sessions: 8,
		sampleEvery: 20, warmup: 2 * time.Second,
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// totalKeys is the size of the preloaded key pool.
func (w workload) totalKeys() int {
	if w.rotateEvery > 0 {
		return w.keys * w.blocks
	}
	return w.keys
}

func (w workload) keyName(i int) string {
	return fmt.Sprintf("%s/%s/%04d", w.keyPrefix, w.name, i)
}

// sampled reports whether key i records a history for the checker.
func (w workload) sampled(i int) bool {
	return w.sampleEvery > 0 && i%w.sampleEvery == 0
}

type opKind uint8

const (
	opRead opKind = iota
	opUpdate
)

// op is one generated request. The element name of an or-set add is
// derived from the op's stream index, so every add is of a fresh element.
type op struct {
	kind opKind
	key  int
}

// splitmix64 is the stateless generator behind the op stream: op i of a
// seed is a pure function of (seed, i), so sessions can draw from one
// shared stream by atomic index and the stream never has to be sized.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// opAt returns op i of the seed's stream.
func (w workload) opAt(seed, i uint64) op {
	r := splitmix64(seed*0x2545f4914f6cdd1d + i)
	o := op{kind: opUpdate, key: int((r >> 32) % uint64(w.keys))}
	if r%1000 < w.readShare {
		o.kind = opRead
	}
	if w.rotateEvery > 0 {
		o.key += w.keys * int((i/w.rotateEvery)%uint64(w.blocks))
	}
	return o
}

// elementName is the fresh or-set element op i adds.
func elementName(i uint64) string { return fmt.Sprintf("op-%d", i) }

// streamHashOps is how many leading ops the op-stream hash covers.
const streamHashOps = 1 << 16

// streamHash fingerprints the seed's op stream (kind and key of the
// first streamHashOps ops), so two records can prove they ran the same
// inputs.
func (w workload) streamHash(seed uint64) string {
	h := fnv.New64a()
	var buf [9]byte
	for i := uint64(0); i < streamHashOps; i++ {
		o := w.opAt(seed, i)
		buf[0] = byte(o.kind)
		binary.LittleEndian.PutUint64(buf[1:], uint64(o.key))
		h.Write(buf[:])
	}
	return fmt.Sprintf("%016x", h.Sum64())
}
