package client

import (
	"bufio"
	"cmp"
	"context"
	"errors"
	"fmt"
	"net"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"crdtsmr/internal/wire"
)

// errConnFailed wraps connection-level failures after an update's
// request was written — the response is gone but the update may have
// been executed, which is exactly the ErrUncertain contract. Read-only
// operations take the ErrUnavailable class on the same failure instead:
// they have no effects, so "not served" is provable (the same split the
// server applies to its own fate-class failures).
var errConnFailed = fmt.Errorf("%w: connection failed", ErrUncertain)

// errNotSent wraps failures that provably precede the write (the pooled
// connection was already dead), so any operation may retry elsewhere —
// which is the ErrUnavailable contract, like a dial failure.
var errNotSent = fmt.Errorf("%w: request not sent", ErrUnavailable)

// errWrite fails a connection whose frame write failed, the writer's own
// deadline cutting it short, say.
var errWrite = errors.New("client: write")

// errQueued marks a request that found its connection failed by another
// caller's write (errWrite) while it waited for its turn to write: nothing
// was sent, and the endpoint did not refuse it, so do() redials without
// spending an attempt, as pool.get redials a slot it finds dead. The
// request's context still bounds the wait.
var errQueued = fmt.Errorf("%w: connection failed while queued to write", errNotSent)

// errBusyConn marks a connection the server refused at admission with the
// busy-close handshake (one StatusBusy response on request ID 0, then
// close; docs/PROTOCOL.md §2.5). The server read nothing on it, so even a
// request already written is provably unexecuted — the ErrBusy class,
// safe to retry anywhere after backing off.
var errBusyConn = fmt.Errorf("%w: connection refused at admission", ErrBusy)

// errInFlight marks a context expiry that struck after the request frame
// was written: the response will never be read, so an update's fate is
// unknown and do() must add the ErrUncertain classification on top of
// the timeout/cancellation one.
var errInFlight = errors.New("client: context done with request in flight")

// Client is a pooled, pipelining client for one cluster. It is safe for
// concurrent use; typed handles share the client's pool. Create one with
// New and release it with Close.
//
// The endpoint set is dynamic: SetAddrs (or RefreshMembers, which asks
// the cluster) reconciles the pools against a new address list, so a
// long-lived client follows the cluster through reconfigurations.
type Client struct {
	cfg  config
	next atomic.Uint64 // cursor rotating keyless (admin) requests over the addresses

	mu     sync.Mutex
	pools  []*pool
	closed bool

	reads readCache // per key, the last large state a query returned
}

// New returns a client for the given cluster addresses (the replicas'
// client-facing ports). Connections are dialed lazily on first use. An
// update or query goes to its key's home address, chosen by rendezvous
// hash over the current addresses, so every client sends a key to the same
// replica; admin operations rotate over the addresses. Either kind fails
// over to the others per the retry policy.
func New(addrs []string, opts ...Option) (*Client, error) {
	if len(addrs) == 0 {
		return nil, errors.New("client: no server addresses")
	}
	cfg := defaultConfig(addrs)
	for _, o := range opts {
		o(&cfg)
	}
	c := &Client{cfg: cfg}
	for _, addr := range addrs {
		c.pools = append(c.pools, newPool(addr, cfg))
	}
	return c, nil
}

// Close tears down every pooled connection. In-flight requests fail with
// a connection error.
func (c *Client) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	pools := c.pools
	c.mu.Unlock()
	for _, p := range pools {
		p.close()
	}
	return nil
}

// Addrs returns the current endpoint addresses, in pool order.
func (c *Client) Addrs() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]string, len(c.pools))
	for i, p := range c.pools {
		out[i] = p.addr
	}
	return out
}

// SetAddrs reconciles the endpoint set against addrs: pools for retained
// addresses keep their connections, new addresses get fresh (lazily
// dialed) pools, and pools for removed addresses are closed — their
// connections are torn down, never leaked, and operations holding one
// fail over to a surviving endpoint. Duplicate addresses collapse to
// one pool.
func (c *Client) SetAddrs(addrs []string) error {
	if len(addrs) == 0 {
		return errors.New("client: no server addresses")
	}
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return ErrClosed
	}
	keep := make(map[string]*pool, len(c.pools))
	for _, p := range c.pools {
		keep[p.addr] = p
	}
	var next []*pool
	seen := make(map[string]bool, len(addrs))
	var removed []*pool
	for _, addr := range addrs {
		if seen[addr] {
			continue
		}
		seen[addr] = true
		if p, ok := keep[addr]; ok {
			next = append(next, p)
			delete(keep, addr)
		} else {
			next = append(next, newPool(addr, c.cfg))
		}
	}
	for _, p := range keep {
		removed = append(removed, p)
	}
	c.pools = next
	c.mu.Unlock()
	for _, p := range removed {
		p.close()
	}
	return nil
}

// snapshotPools returns the current pool list, or ErrClosed after Close.
// The slice is immutable once returned (SetAddrs replaces, never
// mutates), so callers may index it without the lock.
func (c *Client) snapshotPools() ([]*pool, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil, ErrClosed
	}
	return c.pools, nil
}

// ctxErr classifies a context failure: deadline expiry additionally
// matches ErrTimeout, so callers can distinguish "took too long" from
// their own cancellation without inspecting the context themselves.
func ctxErr(ctx context.Context, lastErr error) error {
	err := ctx.Err()
	if errors.Is(err, context.DeadlineExceeded) {
		err = fmt.Errorf("%w: %w", ErrTimeout, err)
	}
	if lastErr != nil {
		return fmt.Errorf("%w (last attempt: %v)", err, lastErr)
	}
	return err
}

// expired reports whether ctx is done, first waiting out a deadline that
// has passed but not yet fired: a socket deadline taken from ctx (a dial's,
// say) can expire a little before ctx's own timer, and the failure it
// causes is the caller's timeout, not the endpoint's.
func expired(ctx context.Context) bool {
	if dl, ok := ctx.Deadline(); ok && !time.Now().Before(dl) {
		<-ctx.Done()
	}
	return ctx.Err() != nil
}

// do runs one request with retries. retryInFlight permits retrying after
// failures that leave the operation's fate unknown (safe for reads and
// admin commands, not for updates).
func (c *Client) do(ctx context.Context, req *wire.Request, retryInFlight bool) (*wire.Response, error) {
	if _, err := c.snapshotPools(); err != nil {
		return nil, err
	}

	if _, ok := ctx.Deadline(); !ok && c.cfg.requestTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, c.cfg.requestTimeout)
		defer cancel()
	}

	// Each attempt re-snapshots the pool list so a concurrent SetAddrs
	// takes effect mid-retry (failing over onto endpoints that still
	// exist). Only keyless requests advance the shared cursor; a keyed
	// one starts past the suspect pools at the top of its key's ranking.
	var start uint64
	if req.Key == "" {
		start = c.next.Add(1)
	}
	var lastErr error
	for attempt := 0; attempt < c.cfg.retry.MaxAttempts; attempt++ {
		if attempt > 0 {
			// Capped exponential backoff with jitter (RetryPolicy.delay):
			// under overload the retry pressure must shrink, not hold
			// steady, or shed requests return as a synchronized storm.
			select {
			case <-time.After(c.cfg.retry.delay(attempt)):
			case <-ctx.Done():
				return nil, ctxErr(ctx, lastErr)
			}
		}
		pools, err := c.snapshotPools()
		if err != nil {
			return nil, err
		}
		if attempt == 0 && req.Key != "" {
			start = skipSuspects(pools, req.Key)
		}
		p := pick(pools, req.Key, start, attempt)
		cn, err := p.get(ctx)
		if err != nil {
			if errors.Is(err, ErrClosed) {
				if _, serr := c.snapshotPools(); serr != nil {
					// Racing Client.Close: every further attempt is doomed,
					// so fail now instead of burning the retry budget.
					return nil, serr
				}
				// The pool was closed because SetAddrs removed its endpoint
				// (stale member list), not because the client shut down.
				// Nothing was sent; retry on a current endpoint.
				lastErr = fmt.Errorf("%w: endpoint %s removed", ErrUnavailable, p.addr)
				continue
			}
			if expired(ctx) {
				return nil, ctxErr(ctx, err)
			}
			// Nothing was sent; always safe to try the next address.
			p.suspect()
			lastErr = err
			continue
		}
		resp, err := cn.roundtrip(ctx, req)
		if err != nil {
			if expired(ctx) {
				cerr := ctxErr(ctx, err)
				// Was the frame already on the wire when the context fired?
				// errInFlight marks the common case; a connection failure
				// that is neither pre-write (errNotSent) nor a local size
				// rejection also happened post-write. Either way an update
				// may still be applied, so the caller must additionally
				// learn the fate is unknown.
				inFlight := errors.Is(err, errInFlight) ||
					(!errors.Is(err, errNotSent) && !errors.Is(err, wire.ErrFrameTooLarge))
				if !retryInFlight && inFlight {
					cerr = fmt.Errorf("%w: %w", ErrUncertain, cerr)
				}
				return nil, cerr
			}
			if errors.Is(err, wire.ErrFrameTooLarge) {
				// Terminal everywhere: every replica enforces the same limit.
				return nil, fmt.Errorf("client: request exceeds frame limit: %w", err)
			}
			if errors.Is(err, errNotSent) {
				// The connection was dead before the frame was written:
				// like a dial failure, safe to retry any operation.
				lastErr = err
				if errors.Is(err, errQueued) {
					// Another caller's failed write took the connection
					// down: the endpoint did not refuse this request, so
					// it costs a redial, not an attempt.
					attempt--
				} else {
					p.suspect()
				}
				continue
			}
			if errors.Is(err, ErrBusy) {
				// Busy-close handshake: the server refused the whole
				// connection at admission and read nothing on it, so the
				// operation provably did not execute — retry anywhere
				// (the next attempt's backoff paces it).
				lastErr = err
				continue
			}
			p.suspect()
			if !retryInFlight {
				return nil, fmt.Errorf("%w: %v", errConnFailed, err)
			}
			// A read-only operation on a died connection was simply not
			// served — effect-free, so provably not applied.
			lastErr = fmt.Errorf("%w: connection failed: %v", ErrUnavailable, err)
			continue
		}
		if resp.Status == byte(StatusOK) {
			return resp, nil
		}
		// retryInFlight doubles as "read-only": for those, a
		// StatusUncertain answer takes the ErrUnavailable class (see
		// StatusError.Is) — a read has no fate to be uncertain about.
		lastErr = &StatusError{Status: Status(resp.Status), Msg: resp.Msg, readOnly: retryInFlight}
		switch resp.Status {
		case byte(StatusUnavailable):
			// The endpoint refused the operation, or timed out on a read.
			p.suspect()
			continue // provably not applied: retry anywhere
		case byte(StatusBusy):
			// Shed at admission, provably not applied: retry anywhere —
			// after the growing backoff, which is what keeps a shedding
			// server from drowning in its own retries.
			continue
		case byte(StatusUncertain):
			// The endpoint timed out on an update, or aborted it.
			p.suspect()
			if retryInFlight {
				continue
			}
			return nil, lastErr
		default:
			return nil, lastErr // terminal
		}
	}
	return nil, fmt.Errorf("client: %d attempts exhausted: %w", c.cfg.retry.MaxAttempts, lastErr)
}

// --- key routing ---

// pick returns the pool for attempt n (from 0) of a request. A keyed
// request goes to the pools in the key's rendezvous order from position
// start (skipSuspects): the first attempt to the pool scoring highest,
// the key's home, unless it is suspect, and each retry to the next.
// Sending a key to one replica gives it one proposer, so its queries stop
// invalidating each other's rounds and its round lease stays where it was
// installed. The home is only a routing hint: every
// replica serves every key, and changing the address set re-homes only
// the keys of the addresses that left or now outscore the old home. A
// keyless request rotates from the cursor position start.
func pick(pools []*pool, key string, start uint64, n int) *pool {
	// Reduce modulo the pool count while still in uint64, so the int
	// conversion can never go negative (32-bit platforms).
	i := int((start + uint64(n)) % uint64(len(pools)))
	if key == "" {
		return pools[i]
	}
	if i == 0 {
		home, best := pools[0], pools[0].score(key)
		for _, p := range pools[1:] {
			if s := p.score(key); s > best {
				home, best = p, s
			}
		}
		return home
	}
	order := slices.Clone(pools)
	slices.SortStableFunc(order, func(a, b *pool) int { return cmp.Compare(b.score(key), a.score(key)) })
	return order[i]
}

// skipSuspects returns where a keyed request's first attempt starts in the
// key's rendezvous order (pick's start): at the first pool that is not
// suspect, or at the home when every pool is, or when the home is not.
// Only when some pool is suspect does it look for the home.
func skipSuspects(pools []*pool, key string) uint64 {
	now := time.Now()
	if !slices.ContainsFunc(pools, func(p *pool) bool { return p.suspected(now) }) ||
		!pick(pools, key, 0, 0).suspected(now) {
		return 0
	}
	for n := 1; n < len(pools); n++ {
		if !pick(pools, key, 0, n).suspected(now) {
			return uint64(n)
		}
	}
	return 0
}

// FNV-1a, 64 bit.
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// fnv1a continues the FNV-1a hash state h over s.
func fnv1a(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * fnvPrime
	}
	return h
}

// score is the pool's rendezvous weight for key: FNV-1a over (address,
// 0, key), then the splitmix64 finalizer. The finalizer is required: raw
// FNV-1a scores of different addresses are too correlated to rank them
// fairly (without it TestKeyHomesSpreadEvenly's 3,000 keys split
// 1,000/1,200/800, and a handful of keys can all share one home).
func (p *pool) score(key string) uint64 {
	h := fnv1a(p.seed, key)
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	return h ^ h>>31
}

// --- connection pool ---

// suspectWindow is how long a keyed request's first attempt avoids an
// endpoint after an attempt there failed through the endpoint's own
// fault: a failed dial or connection, or an unavailable or uncertain
// answer. A partitioned home then costs its server timeout once per
// window, not once per operation; the window is short so that a healed
// home gets its keys back soon.
const suspectWindow = time.Second

type pool struct {
	addr string
	seed uint64 // FNV-1a state after hashing addr and a 0 byte (score)
	cfg  config

	suspectUntil atomic.Int64 // Unix nanoseconds; see suspectWindow

	mu     sync.Mutex
	conns  []*conn // fixed-size slots, nil or dead until (re)dialed
	rr     uint64
	closed bool
}

func newPool(addr string, cfg config) *pool {
	seed := fnv1a(fnvOffset, addr) * fnvPrime // then the 0 separator: h ^ 0 == h
	return &pool{addr: addr, seed: seed, cfg: cfg, conns: make([]*conn, cfg.connsPerAddr)}
}

// get returns a live connection from the pool, dialing the slot if its
// connection is absent or dead.
func (p *pool) get(ctx context.Context) (*conn, error) {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil, ErrClosed
	}
	slot := int(p.rr % uint64(len(p.conns)))
	p.rr++
	if cn := p.conns[slot]; cn != nil && !cn.isDead() {
		p.mu.Unlock()
		return cn, nil
	}
	p.mu.Unlock()

	dialer := p.cfg.dialer
	if dialer == nil {
		dialer = &net.Dialer{}
	}
	dctx, cancel := context.WithTimeout(ctx, p.cfg.dialTimeout)
	nc, err := dialer.DialContext(dctx, "tcp", p.addr)
	cancel()
	if err != nil {
		// A failed dial provably sent nothing, so it carries the
		// ErrUnavailable class: safe to retry anything, anywhere — and an
		// operation that exhausts its budget this way (cluster down)
		// surfaces as ErrUnavailable to the caller.
		return nil, fmt.Errorf("%w: dial %s: %v", ErrUnavailable, p.addr, err)
	}
	cn := newConn(nc)

	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		cn.fail(ErrClosed)
		return nil, ErrClosed
	}
	if existing := p.conns[slot]; existing != nil && !existing.isDead() {
		// Lost a dial race; keep the winner.
		cn.fail(errors.New("client: duplicate dial"))
		return existing, nil
	}
	p.conns[slot] = cn
	return cn, nil
}

// suspect marks the endpoint as failing for suspectWindow.
func (p *pool) suspect() { p.suspectUntil.Store(time.Now().Add(suspectWindow).UnixNano()) }

// suspected reports whether the endpoint failed within suspectWindow of now.
func (p *pool) suspected(now time.Time) bool { return now.UnixNano() < p.suspectUntil.Load() }

func (p *pool) close() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.closed = true
	for _, cn := range p.conns {
		if cn != nil {
			cn.fail(ErrClosed)
		}
	}
}

// --- one pipelined connection ---

type conn struct {
	nc net.Conn

	wsem chan struct{} // holds one token per frame write; serializes writes
	wbuf []byte        // the frame being written; owned by wsem's holder

	mu      sync.Mutex
	nextID  uint64
	pending map[uint64]chan *wire.Response
	err     error // non-nil once dead
}

func newConn(nc net.Conn) *conn {
	c := &conn{
		nc:      nc,
		wsem:    make(chan struct{}, 1),
		pending: make(map[uint64]chan *wire.Response),
	}
	go c.readLoop()
	return c
}

func (c *conn) isDead() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.err != nil
}

// fail marks the connection dead and unblocks every pending request. A
// dead connection is never handed out again: the pool redials its slot.
func (c *conn) fail(err error) {
	c.mu.Lock()
	if c.err == nil {
		c.err = err
	}
	_ = c.nc.Close()
	for id, ch := range c.pending {
		delete(c.pending, id)
		close(ch)
	}
	c.mu.Unlock()
}

// forget drops request id, with c.mu held. A connection a failed write
// left dead (roundtrip) closes once no request waits on it.
func (c *conn) forget(id uint64) {
	delete(c.pending, id)
	if c.err != nil && len(c.pending) == 0 {
		_ = c.nc.Close()
	}
}

func (c *conn) readLoop() {
	br := bufio.NewReader(c.nc)
	for {
		frame, err := wire.ReadFrame(br)
		if err != nil {
			c.fail(fmt.Errorf("client: read: %w", err))
			return
		}
		resp, err := wire.DecodeResponse(frame)
		if err != nil {
			// A peer speaking garbage is a connection-level error: no
			// response on this conn can be trusted to correlate.
			c.fail(fmt.Errorf("client: decode response: %w", err))
			return
		}
		if resp.ID == 0 && resp.Status == byte(StatusBusy) {
			// The busy-close handshake: request IDs start at 1, so ID 0
			// addresses the connection itself — the server refused it at
			// admission, before reading anything, and is about to close
			// it. Fail every pending request with the retry-anywhere
			// busy class rather than the uncertain one a bare close
			// would imply.
			c.fail(errBusyConn)
			return
		}
		c.mu.Lock()
		ch, ok := c.pending[resp.ID]
		if ok {
			c.forget(resp.ID)
		}
		c.mu.Unlock()
		if ok {
			ch <- resp
		}
	}
}

// roundtrip sends req (assigning it a connection-unique ID) and waits for
// the matching response. Concurrent roundtrips on one conn pipeline.
func (c *conn) roundtrip(ctx context.Context, req *wire.Request) (*wire.Response, error) {
	// The write runs under ctx: waiting for another caller's write gives
	// up when ctx ends (nothing was sent), and ctx's end interrupts a write
	// to a server that stops reading, failing the connection.
	select {
	case c.wsem <- struct{}{}:
	case <-ctx.Done():
		return nil, fmt.Errorf("%w: %w", errNotSent, ctx.Err())
	}
	// The connection is checked only now, as the previous write left it: a
	// write that failed while this caller queued took it down first.
	ch := make(chan *wire.Response, 1)
	c.mu.Lock()
	if err := c.err; err != nil {
		c.mu.Unlock()
		<-c.wsem
		if errors.Is(err, errWrite) {
			return nil, fmt.Errorf("%w: %v", errQueued, err)
		}
		return nil, fmt.Errorf("%w: %v", errNotSent, err)
	}
	c.nextID++
	id := c.nextID
	c.pending[id] = ch
	c.mu.Unlock()

	r := *req
	r.ID = id
	interrupted := make(chan struct{})
	stop := context.AfterFunc(ctx, func() {
		_ = c.nc.SetWriteDeadline(time.Unix(1, 0))
		close(interrupted)
	})
	frame, err := r.AppendFrame(c.wbuf[:0])
	if err == nil {
		_, err = c.nc.Write(frame)
		c.wbuf = frame[:0]
	}
	if !stop() {
		<-interrupted
		_ = c.nc.SetWriteDeadline(time.Time{})
	}
	// A write that failed part-way leaves no frame boundary to resume at:
	// mark the connection dead before handing the write slot on, so the
	// next writer sees it. Requests whose frames went out earlier still
	// wait for their responses; the socket closes after the last of them
	// (forget), or when the server closes it.
	if err != nil && !errors.Is(err, wire.ErrFrameTooLarge) {
		c.mu.Lock()
		if c.err == nil {
			c.err = fmt.Errorf("%w: %w", errWrite, err)
		}
		c.forget(id)
		c.mu.Unlock()
	}
	<-c.wsem
	if err != nil {
		if errors.Is(err, wire.ErrFrameTooLarge) {
			// Local size check, nothing written: the request is bad, the
			// connection is fine — don't kill other callers' pipelines.
			c.mu.Lock()
			c.forget(id)
			c.mu.Unlock()
			return nil, err
		}
		// A write cut short by the busy-close handshake went to a
		// connection the server never read: provably not executed.
		c.mu.Lock()
		cerr := c.err
		c.mu.Unlock()
		if errors.Is(cerr, ErrBusy) {
			return nil, cerr
		}
		return nil, err
	}

	select {
	case resp, ok := <-ch:
		if !ok {
			c.mu.Lock()
			err := c.err
			c.mu.Unlock()
			return nil, err
		}
		return resp, nil
	case <-ctx.Done():
		c.mu.Lock()
		c.forget(id)
		c.mu.Unlock()
		return nil, fmt.Errorf("%w: %w", errInFlight, ctx.Err())
	}
}
