package server

import (
	"bufio"
	"context"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"crdtsmr/internal/core"
	"crdtsmr/internal/crdt"
	"crdtsmr/internal/wire"
)

// conn serves one client connection with two goroutines: the read loop
// submits each query or update to the node (Node.SubmitQuery,
// SubmitMutation), whose completion, on the key's shard loop, queues the
// request for the writer, which renders and writes every answer. Only an
// admin command, which can block in a reconfiguration, gets a goroutine.
//
// RequestTimeout is one deadline list per connection with one timer: every
// request gets the same timeout, so the list, in admission order, is in
// deadline order. A request the timer reaches first is answered as fail
// answers context.DeadlineExceeded, and its completion is dropped when it
// lands: one answer per request ID.
type conn struct {
	s   *Server
	nc  net.Conn
	sem chan struct{} // a token per admitted request until its answer is written

	mu      sync.Mutex
	waiting request     // sentinel of the ring awaiting completion, earliest deadline next
	timer   *time.Timer // runs expire
	due     time.Time   // when timer fires; zero when not armed
	ready   []*request  // answered, for the writer
	pending int         // admitted and not through the writer
	eof     bool        // the read loop has returned
	wake    chan struct{}

	writeDeadline time.Time // the writer's
}

// A request's phase only moves forward; whoever moves it to answered (the
// completion, the timer or the teardown) answers it. An update is
// submitted once its mutation reaches the protocol.
const (
	phasePending int32 = iota
	phaseSubmitted
	phaseAnswered
)

type request struct {
	c          *conn
	req        *wire.Request
	resp       wire.Response
	deadline   time.Time
	prev, next *request // on the deadline list; nil when off it
	phase      atomic.Int32

	// The outcome, written by the claimer before the writer reads it.
	st          crdt.State
	qs          core.QueryStats
	us          core.UpdateStats
	observeRTTs int
	err         error
	submitted   bool // an update reached the protocol before its answer
	rendered    bool // resp is the whole answer (admin, busy)
}

func newConn(s *Server, nc net.Conn) *conn {
	c := &conn{s: s, nc: nc, sem: make(chan struct{}, s.opts.MaxInFlight), wake: make(chan struct{}, 1)}
	c.waiting.prev, c.waiting.next = &c.waiting, &c.waiting
	return c
}

// serveConn runs one connection. When the client stops sending, the
// requests it sent are still answered (each within RequestTimeout); Close
// waits for none of them.
func (s *Server) serveConn(nc net.Conn) {
	defer s.wg.Done()
	c := newConn(s, nc)
	written := make(chan struct{})
	go func() { c.writeLoop(); close(written) }()
	c.readLoop()
	c.mu.Lock()
	c.eof = true
	c.mu.Unlock()
	c.signal()
	<-written
	_ = nc.Close()
	c.mu.Lock()
	if c.timer != nil {
		c.timer.Stop()
	}
	for r := c.waiting.next; r != &c.waiting; r = c.waiting.next {
		r.unlink()
		if r.claim() {
			s.inflight.Add(-1)
		}
	}
	c.mu.Unlock()
	s.mu.Lock()
	delete(s.conns, nc)
	s.mu.Unlock()
}

// readLoop admits and submits requests. An undecodable frame is a
// connection-level protocol error: with no trustworthy request ID to
// answer, the connection closes, like the replica transport's.
func (c *conn) readLoop() {
	s := c.s
	br := bufio.NewReader(c.nc)
	for {
		frame, err := wire.ReadFrame(br)
		if err != nil {
			return
		}
		req, err := wire.DecodeRequest(frame)
		if err != nil {
			return
		}
		// Per-connection backpressure first: a connection pipelining past
		// its own MaxInFlight waits here, stalling only its own client.
		select {
		case c.sem <- struct{}{}:
		case <-s.quit:
			return
		}
		r := &request{c: c, req: req, resp: wire.Response{Op: req.Op | wire.RespBit, ID: req.ID}}
		c.mu.Lock()
		c.pending++
		c.mu.Unlock()
		// Server-wide cap second, and never by waiting: queuing one
		// client's requests behind every other client's would turn
		// overload into unbounded latency for all. The busy answer holds
		// its token until written, so a flooding client stalls itself.
		if s.inflight.Add(1) > int64(s.opts.MaxTotalInFlight) {
			s.inflight.Add(-1)
			s.shedRequests.Add(1)
			r.resp.Status, r.resp.Msg, r.rendered = wire.StatusBusy, "server: in-flight request limit reached", true
			r.phase.Store(phaseAnswered)
			c.push(r, false)
			continue
		}
		switch req.Op {
		case wire.OpQuery:
			c.await(r)
			if err := s.node.SubmitQuery(s.ctx, req.Key, r.queried); err != nil {
				r.queried(nil, core.QueryStats{}, err)
			}
		case wire.OpUpdate:
			c.await(r)
			if err := s.node.SubmitMutation(s.ctx, req.Key, req.CRDTType, req.Mutation, req.Args, r.proceed, r.updated); err != nil {
				r.updated(core.UpdateStats{}, 0, err)
			}
		default:
			s.wg.Add(1)
			go func() {
				defer s.wg.Done()
				if req.Op == wire.OpAdmin {
					ctx, cancel := context.WithTimeout(s.ctx, s.opts.RequestTimeout)
					s.handleAdmin(ctx, req, &r.resp)
					cancel()
				}
				r.rendered = true
				r.phase.Store(phaseAnswered) // no other claimer: it is not listed
				c.push(r, true)
			}()
		}
	}
}

// proceed marks an update submitted, unless it was answered already: the
// node then drops it (cluster.ErrAbandoned).
func (r *request) proceed() bool { return r.phase.CompareAndSwap(phasePending, phaseSubmitted) }

// claim takes the right to answer r; it fails if r has an answer.
func (r *request) claim() bool {
	for p := r.phase.Load(); p != phaseAnswered; p = r.phase.Load() {
		if r.phase.CompareAndSwap(p, phaseAnswered) {
			r.submitted = p == phaseSubmitted
			return true
		}
	}
	return false
}

func (r *request) queried(st crdt.State, qs core.QueryStats, err error) {
	if r.claim() {
		r.st, r.qs, r.err = st, qs, err
		r.c.push(r, true)
	}
}

func (r *request) updated(us core.UpdateStats, observeRTTs int, err error) {
	if r.claim() {
		r.us, r.observeRTTs, r.err = us, observeRTTs, err
		r.c.push(r, true)
	}
}

// await appends r to the deadline list. An armed timer fires no later
// than r's deadline, and expire re-arms it for the head, so only an idle
// timer is set.
func (c *conn) await(r *request) {
	r.deadline = time.Now().Add(c.s.opts.RequestTimeout)
	c.mu.Lock()
	defer c.mu.Unlock()
	r.prev, r.next = c.waiting.prev, &c.waiting
	r.prev.next, c.waiting.prev = r, r
	if c.due.IsZero() {
		c.arm(r.deadline)
	}
}

// arm sets the timer to fire at t, with c.mu held.
func (c *conn) arm(t time.Time) {
	if c.due = t; c.timer == nil {
		c.timer = time.AfterFunc(time.Until(t), c.expire)
	} else {
		c.timer.Reset(time.Until(t))
	}
}

// unlink takes r off the deadline list, if it is on it, with c.mu held.
func (r *request) unlink() {
	if r.next != nil {
		r.prev.next, r.next.prev = r.next, r.prev
		r.prev, r.next = nil, nil
	}
}

// expire answers every request whose deadline has passed.
func (c *conn) expire() {
	now := time.Now()
	c.mu.Lock()
	c.due = time.Time{}
	for r := c.waiting.next; r != &c.waiting && !r.deadline.After(now); r = c.waiting.next {
		r.unlink()
		if r.claim() {
			r.err = context.DeadlineExceeded
			c.s.inflight.Add(-1)
			c.ready = append(c.ready, r)
		}
	}
	if c.waiting.next != &c.waiting {
		c.arm(c.waiting.next.deadline)
	}
	c.mu.Unlock()
	c.signal()
}

// push hands an answered request to the writer; executed says it was
// counted in the server's in-flight requests.
func (c *conn) push(r *request, executed bool) {
	if executed {
		c.s.inflight.Add(-1)
	}
	c.mu.Lock()
	r.unlink()
	c.ready = append(c.ready, r)
	c.mu.Unlock()
	c.signal()
}

func (c *conn) signal() {
	select {
	case c.wake <- struct{}{}:
	default:
	}
}

// writeLoop writes answers in the order they came. It returns once the
// read loop has returned and every admitted request is through, or at
// once when the server closes. After a failed write it only releases
// tokens; the closed socket ends the read loop.
func (c *conn) writeLoop() {
	var batch []*request
	failed := false
	for {
		c.mu.Lock()
		batch, c.ready = c.ready, batch[:0]
		c.mu.Unlock()
		for i, r := range batch {
			if !failed && c.send(r) != nil {
				failed = true
				_ = c.nc.Close()
			}
			c.s.served.Add(1)
			<-c.sem
			batch[i] = nil
		}
		c.mu.Lock()
		c.pending -= len(batch)
		finished := c.eof && c.pending == 0
		c.mu.Unlock()
		if finished {
			return
		}
		if len(batch) == 0 {
			select {
			case <-c.wake:
			case <-c.s.quit:
				return
			}
		}
	}
}

// send renders r's answer and writes it as one frame built in a pooled
// buffer, an OK query's state encoded straight into it. A state too large
// to frame is answered with a terminal error, so the key stays
// diagnosable. The write deadline is refreshed only when less than half
// of writeTimeout remains, not per frame.
func (c *conn) send(r *request) error {
	resp, st := c.s.render(r)
	bp := c.s.frames.get()
	frame, buf, err := appendResponse((*bp)[:0], resp, st)
	if err != nil && st != nil {
		fail(resp, err, true)
		frame, err = resp.AppendFrame(buf[:0])
		buf = frame
	}
	if now := time.Now(); err == nil && c.writeDeadline.Sub(now) < writeTimeout/2 {
		c.writeDeadline = now.Add(writeTimeout)
		err = c.nc.SetWriteDeadline(c.writeDeadline)
	}
	if err == nil {
		_, err = c.nc.Write(frame)
	}
	*bp = buf[:0]
	c.s.frames.put(bp)
	return err
}

// render turns r's outcome into its response. An OK query's state comes
// back unencoded, as st, for send to encode into the frame.
func (s *Server) render(r *request) (resp *wire.Response, st crdt.State) {
	resp, req, stats := &r.resp, r.req, r.qs
	switch {
	case r.rendered:
		return resp, nil
	case r.err != nil:
		// A query, or an update that never reached the protocol, provably
		// had no effect.
		return fail(resp, r.err, req.Op == wire.OpQuery || !r.submitted), nil
	case req.Op == wire.OpUpdate:
		resp.Status, resp.RoundTrips = wire.StatusOK, uint64(r.observeRTTs+r.us.RoundTrips)
		return resp, nil
	}
	resp.Status, resp.RoundTrips, resp.Attempts = wire.StatusOK, uint64(stats.RoundTrips), uint64(stats.Attempts)
	resp.Path, resp.Digest = byte(stats.Path), stats.Digest
	switch {
	case stats.Digest.IsZero():
		return resp, r.st
	case stats.Digest == req.Have:
		// The client holds exactly the learned state (equal digests are
		// equal encodings): answer "unchanged", with no state.
		return resp, nil
	}
	var d crdt.State
	if req.AcceptDelta {
		// When the client holds a state this server answered with, and
		// the learned state dominates it, answer what it lacks.
		d = s.answers.deltaAnswer(r.st, req.Have)
	}
	if s.answers.add(stats.Digest, r.st); d != nil {
		resp.Base = req.Have
		return resp, d
	}
	return resp, r.st
}
