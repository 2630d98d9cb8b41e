package client

// ReadCacheSize exports the read cache's cap to the black-box tests.
const ReadCacheSize = readCacheSize

// ReadCacheLen returns the number of entries in c's read cache.
func ReadCacheLen(c *Client) int {
	c.reads.mu.Lock()
	defer c.reads.mu.Unlock()
	return len(c.reads.entries)
}

// KeyHome returns the address c sends key's requests to first when no
// endpoint is suspect.
func KeyHome(c *Client, key string) string {
	pools, err := c.snapshotPools()
	if err != nil {
		return ""
	}
	return pick(pools, key, 0, 0).addr
}
