package client

import (
	"sync"

	"crdtsmr/internal/wire"
)

// readCacheSize caps a Client's read cache. An entry holds one decoded
// large state, 100–250 KB for the ~1,000-element or-sets of the
// large-set workload, so a full cache stays near 2 MB; 8 entries cover
// that workload's 8 live keys. A client reading more large keys than
// this in rotation loses "unchanged" answers, never correctness.
const readCacheSize = 8

// cachedRead is a key's last large read: the state Query returned and
// the digest its reply named it by.
type cachedRead struct {
	state  State
	digest [wire.DigestSize]byte
	used   uint64 // readCache.clock at the last store or lookup
}

// readCache keeps, per key, the state and digest of the last completed
// query that returned a state of at least wire.LargeState bytes with a
// digest. The digest goes out with the key's next query, and a server
// whose learned state has it answers "unchanged" instead of shipping the
// state again (docs/PROTOCOL.md §2.4). It holds at most readCacheSize
// entries, evicting the least recently used.
type readCache struct {
	mu      sync.Mutex
	entries map[string]*cachedRead
	clock   uint64
}

// get returns key's entry, by value: the caller keeps the state whose
// digest its request carries, whatever later stores do to the entry.
func (c *readCache) get(key string) (cachedRead, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[key]
	if !ok {
		return cachedRead{}, false
	}
	c.clock++
	e.used = c.clock
	return *e, true
}

// store records a query's answer for key: resp's state, decoded as st,
// when it is large and named by digest. Any other answer drops the entry
// the query found (held), which can only name an older state; a small
// key's read, which found none, takes no lock here.
func (c *readCache) store(key string, held bool, st State, resp *wire.Response) {
	large := len(resp.State) >= wire.LargeState && resp.Digest != [wire.DigestSize]byte{}
	if !large && !held {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if !large {
		delete(c.entries, key)
		return
	}
	c.clock++
	if e, ok := c.entries[key]; ok {
		e.state, e.digest, e.used = st, resp.Digest, c.clock
		return
	}
	if c.entries == nil {
		c.entries = make(map[string]*cachedRead, readCacheSize)
	}
	if len(c.entries) >= readCacheSize {
		var oldest string
		var at uint64
		for k, e := range c.entries {
			if at == 0 || e.used < at {
				oldest, at = k, e.used
			}
		}
		delete(c.entries, oldest)
	}
	c.entries[key] = &cachedRead{state: st, digest: resp.Digest, used: c.clock}
}
