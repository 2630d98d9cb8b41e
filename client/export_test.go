package client

// ReadCacheSize exports the read cache's cap to the black-box tests.
const ReadCacheSize = readCacheSize

// ReadCacheLen returns the number of entries in c's read cache.
func ReadCacheLen(c *Client) int {
	c.reads.mu.Lock()
	defer c.reads.mu.Unlock()
	return len(c.reads.entries)
}
