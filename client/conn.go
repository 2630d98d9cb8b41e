package client

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"slices"
	"sync"
	"time"

	"crdtsmr/internal/wire"
)

// conn is one pipelined connection. The WithRequestTimeout fallback is one
// deadline list per connection, earliest first, with one timer: it ends a
// listed request at its deadline, waiting to write, writing (the write is
// cut short) or waiting for its answer. A caller's own context is watched
// only when it can end (ctx.Done() != nil).
type conn struct {
	nc net.Conn

	wsem chan struct{} // holds one token per frame write; serializes writes
	wbuf []byte        // the frame being written; owned by wsem's holder

	mu      sync.Mutex
	nextID  uint64
	pending map[uint64]chan *wire.Response
	err     error // non-nil once dead

	deadlines []deadline  // of pending requests, earliest first
	timer     *time.Timer // runs expire; nil until first armed
	due       time.Time   // when timer fires; zero when it is not armed
	writing   uint64      // the request whose frame is being written; 0 when none
	cut       bool        // expire cut that write short
}

type deadline struct {
	at time.Time
	id uint64
}

var timedOut = new(wire.Response) // sent to a request expire ends

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
	c.deadlines = c.deadlines[:0]
	c.mu.Unlock()
}

// forget drops request id, with c.mu held. A connection a failed write
// left dead (roundtrip) closes once no request waits on it.
func (c *conn) forget(id uint64) {
	delete(c.pending, id)
	for i, d := range c.deadlines {
		if d.id == id {
			c.deadlines = append(c.deadlines[:i], c.deadlines[i+1:]...)
			break
		}
	}
	if c.err != nil && len(c.pending) == 0 {
		_ = c.nc.Close()
	}
}

// await lists request id's deadline, with c.mu held. Calls share one
// timeout, so the slot is nearly always the end; the timer is set only
// when it would fire later or not at all.
func (c *conn) await(id uint64, at time.Time) {
	i := len(c.deadlines)
	for i > 0 && c.deadlines[i-1].at.After(at) {
		i--
	}
	c.deadlines = slices.Insert(c.deadlines, i, deadline{at, id})
	if c.due.IsZero() || at.Before(c.due) {
		c.arm(at)
	}
}

func (c *conn) arm(at time.Time) {
	if c.due = at; c.timer == nil {
		c.timer = time.AfterFunc(time.Until(at), c.expire)
	} else {
		c.timer.Reset(time.Until(at))
	}
}

// expire ends every request whose deadline has passed.
func (c *conn) expire() {
	now := time.Now()
	c.mu.Lock()
	defer c.mu.Unlock()
	c.due = time.Time{}
	for len(c.deadlines) > 0 && !c.deadlines[0].at.After(now) {
		id := c.deadlines[0].id
		if id == c.writing {
			_ = c.nc.SetWriteDeadline(time.Unix(1, 0))
			c.cut = true
		}
		if ch, ok := c.pending[id]; ok {
			ch <- timedOut // buffered, and sent once: never blocks
		}
		c.forget(id)
	}
	if len(c.deadlines) > 0 {
		c.arm(c.deadlines[0].at)
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

// unsent is the error of a request that ended before its frame was
// written, with c.mu held: the connection was dead, or failed while the
// request waited to write (errQueued when another caller's write took it
// down), or the call's fallback deadline passed.
func (c *conn) unsent() error {
	switch {
	case c.err == nil:
		return fmt.Errorf("%w: %w", errNotSent, context.DeadlineExceeded)
	case errors.Is(c.err, errWrite):
		return fmt.Errorf("%w: %v", errQueued, c.err)
	}
	return fmt.Errorf("%w: %v", errNotSent, c.err)
}

// roundtrip sends req (assigning it a connection-unique ID) and waits for
// the matching response. Concurrent roundtrips on one conn pipeline.
func (c *conn) roundtrip(cl call, req *wire.Request) (*wire.Response, error) {
	ctx := cl.ctx
	ch := make(chan *wire.Response, 1)
	c.mu.Lock()
	if c.err != nil {
		err := c.unsent()
		c.mu.Unlock()
		return nil, err
	}
	c.nextID++
	id := c.nextID
	c.pending[id] = ch
	if !cl.deadline.IsZero() {
		c.await(id, cl.deadline)
	}
	c.mu.Unlock()

	// The write runs under the call's bounds: waiting for another caller's
	// write gives up when they end (nothing was sent), and their end
	// interrupts a write to a server that stops reading, failing the
	// connection.
	select {
	case c.wsem <- struct{}{}:
	case <-ch: // closed by fail, or timedOut
		c.mu.Lock()
		defer c.mu.Unlock()
		return nil, c.unsent()
	case <-ctx.Done():
		c.mu.Lock()
		c.forget(id)
		c.mu.Unlock()
		return nil, fmt.Errorf("%w: %w", errNotSent, ctx.Err())
	}
	// The connection and the request are checked only now, as the previous
	// write left them: a write that failed while this caller queued took
	// the connection down first.
	c.mu.Lock()
	if _, ok := c.pending[id]; !ok || c.err != nil {
		err := c.unsent()
		c.forget(id)
		c.mu.Unlock()
		<-c.wsem
		return nil, err
	}
	c.writing = id
	c.mu.Unlock()

	r := *req
	r.ID = id
	var stop func() bool
	var interrupted chan struct{}
	if ctx.Done() != nil {
		interrupted = make(chan struct{})
		stop = context.AfterFunc(ctx, func() {
			_ = c.nc.SetWriteDeadline(time.Unix(1, 0))
			close(interrupted)
		})
	}
	frame, err := r.AppendFrame(c.wbuf[:0])
	if err == nil {
		_, err = c.nc.Write(frame)
		c.wbuf = frame[:0]
	}
	if stop != nil && !stop() {
		<-interrupted
		_ = c.nc.SetWriteDeadline(time.Time{})
	}
	// A write that failed part-way leaves no frame boundary to resume at:
	// mark the connection dead before handing the write slot on, so the
	// next writer sees it. Requests whose frames went out earlier still
	// wait for their responses; the socket closes after the last of them
	// (forget), or when the server closes it.
	c.mu.Lock()
	c.writing = 0
	if c.cut {
		c.cut = false
		_ = c.nc.SetWriteDeadline(time.Time{})
	}
	if err != nil {
		if !errors.Is(err, wire.ErrFrameTooLarge) && c.err == nil {
			c.err = fmt.Errorf("%w: %w", errWrite, err)
		}
		c.forget(id)
	}
	cerr := c.err
	c.mu.Unlock()
	<-c.wsem
	if err != nil {
		if errors.Is(err, wire.ErrFrameTooLarge) {
			// Local size check, nothing written: the request is bad, the
			// connection is fine — don't kill other callers' pipelines.
			return nil, err
		}
		// A write cut short by the busy-close handshake went to a
		// connection the server never read: provably not executed.
		if errors.Is(cerr, ErrBusy) {
			return nil, cerr
		}
		return nil, err
	}

	select {
	case resp, ok := <-ch:
		switch {
		case !ok:
			c.mu.Lock()
			err := c.err
			c.mu.Unlock()
			return nil, err
		case resp == timedOut:
			return nil, fmt.Errorf("%w: %w", errInFlight, context.DeadlineExceeded)
		}
		return resp, nil
	case <-ctx.Done():
		c.mu.Lock()
		c.forget(id)
		c.mu.Unlock()
		return nil, fmt.Errorf("%w: %w", errInFlight, ctx.Err())
	}
}
