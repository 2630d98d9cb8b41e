package server

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"crdtsmr/internal/cluster"
	"crdtsmr/internal/core"
	"crdtsmr/internal/crdt"
	"crdtsmr/internal/transport"
	"crdtsmr/internal/wire"
)

// writeTimeout bounds one response write. A client that pipelines
// requests but stops reading would otherwise pin the connection's
// responder goroutines on a full TCP window forever.
const writeTimeout = 30 * time.Second

// Options configure a Server.
type Options struct {
	// RequestTimeout bounds one request's protocol run. Default 10 s.
	RequestTimeout time.Duration
	// MaxInFlight caps concurrently executing requests per connection;
	// further pipelined frames wait. Default 256.
	MaxInFlight int
	// MaxConns caps concurrently served client connections. A connection
	// accepted over the cap is answered with a single StatusBusy frame
	// (request ID 0) and closed before any request is read — fd and
	// goroutine cost stays bounded under a connection flood. Default 1024.
	MaxConns int
	// MaxTotalInFlight caps concurrently executing requests across ALL
	// connections. Unlike the per-connection MaxInFlight — whose excess
	// pipelined frames queue, which is that one client's own
	// backpressure — server-wide excess is shed immediately with
	// StatusBusy: queuing other clients' load behind a global limit
	// would turn overload into unbounded latency for everyone.
	// Default 4096.
	MaxTotalInFlight int
	// MemberAddrs maps replica IDs to the client-facing addresses they
	// serve this protocol on. The "members" admin command returns it next
	// to the member list, which is what lets a client refresh its endpoint
	// set after a reconfiguration. Members without an entry are reported
	// with an empty address. Optional; the map is copied.
	MemberAddrs map[string]string
	// RegisterPeer, when set, is invoked by the "member-add" admin command
	// with the joiner's ID and replica-mesh address before the
	// reconfiguration runs, so the local transport can dial a peer it was
	// not configured with at boot (crdtsmrd wires this to TCP.AddPeer).
	// Optional; without it, member-add only accepts peers the transport
	// already knows.
	RegisterPeer func(id, addr string) error
}

func (o Options) withDefaults() Options {
	if o.RequestTimeout <= 0 {
		o.RequestTimeout = 10 * time.Second
	}
	if o.MaxInFlight <= 0 {
		o.MaxInFlight = 256
	}
	if o.MaxConns <= 0 {
		o.MaxConns = 1024
	}
	if o.MaxTotalInFlight <= 0 {
		o.MaxTotalInFlight = 4096
	}
	return o
}

// Server serves the client frame protocol (docs/PROTOCOL.md) on top of
// one replica's cluster.Node.
type Server struct {
	node *cluster.Node
	opts Options
	ln   net.Listener

	ctx    context.Context // canceled on Close; bounds request contexts
	cancel context.CancelFunc

	mu    sync.Mutex
	conns map[net.Conn]struct{}

	// addrMu guards memberAddrs: the "member-add" admin command extends
	// the registry at runtime when the operator supplies the joiner's
	// client address.
	addrMu      sync.Mutex
	memberAddrs map[string]string

	quit   chan struct{}
	closed sync.Once
	wg     sync.WaitGroup

	// seq feeds observed-remove add tags; seeded from the wall clock so
	// tags stay unique across server restarts of the same replica ID.
	seq atomic.Uint64

	served atomic.Uint64 // requests answered, all statuses

	inflight     atomic.Int64  // requests executing across all connections
	shedConns    atomic.Uint64 // connections refused at accept (StatusBusy handshake)
	shedRequests atomic.Uint64 // requests answered StatusBusy over MaxTotalInFlight
}

// New returns a server for node. The node is owned by the caller and must
// outlive the server.
func New(node *cluster.Node, opts Options) *Server {
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		node:        node,
		opts:        opts.withDefaults(),
		ctx:         ctx,
		cancel:      cancel,
		conns:       make(map[net.Conn]struct{}),
		memberAddrs: make(map[string]string, len(opts.MemberAddrs)),
		quit:        make(chan struct{}),
	}
	for id, addr := range opts.MemberAddrs {
		s.memberAddrs[id] = addr
	}
	s.seq.Store(uint64(time.Now().UnixNano()))
	return s
}

// Start listens on addr (use "127.0.0.1:0" for an ephemeral port) and
// serves in the background until Close.
func Start(node *cluster.Node, addr string, opts Options) (*Server, error) {
	s := New(node, opts)
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("server: listen %s: %w", addr, err)
	}
	s.ln = ln
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		s.acceptLoop(ln)
	}()
	return s, nil
}

// Serve accepts client connections on ln until Close. It returns nil once
// the server is closed.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	s.ln = ln
	s.mu.Unlock()
	s.acceptLoop(ln)
	return nil
}

// Addr returns the listener address, or "" before Serve/Start.
func (s *Server) Addr() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ln == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// Served returns the number of requests answered so far.
func (s *Server) Served() uint64 { return s.served.Load() }

// ShedConns returns the number of connections refused at accept because
// MaxConns was reached (each got the StatusBusy close handshake).
func (s *Server) ShedConns() uint64 { return s.shedConns.Load() }

// ShedRequests returns the number of requests answered StatusBusy because
// MaxTotalInFlight was reached.
func (s *Server) ShedRequests() uint64 { return s.shedRequests.Load() }

// Close stops accepting, closes every client connection, and waits for
// in-flight requests to unwind. The underlying node keeps running.
func (s *Server) Close() error {
	s.closed.Do(func() {
		close(s.quit)
		s.cancel()
		s.mu.Lock()
		if s.ln != nil {
			_ = s.ln.Close()
		}
		for conn := range s.conns {
			_ = conn.Close()
		}
		s.mu.Unlock()
	})
	s.wg.Wait()
	return nil
}

func (s *Server) acceptLoop(ln net.Listener) {
	for {
		conn, err := ln.Accept()
		if err != nil {
			select {
			case <-s.quit:
				return
			default:
				// Transient accept failure (e.g. fd exhaustion under
				// connection load): back off instead of spinning the CPU
				// the replica event loop needs.
				time.Sleep(10 * time.Millisecond)
				continue
			}
		}
		// Register under the lock and re-check quit there, so a
		// connection accepted concurrently with Close is either seen by
		// Close's shutdown sweep or closed here — never leaked with a
		// blocked reader (which would hang Close in wg.Wait).
		s.mu.Lock()
		select {
		case <-s.quit:
			s.mu.Unlock()
			_ = conn.Close()
			return
		default:
		}
		if len(s.conns) >= s.opts.MaxConns {
			// Over the connection cap: refuse with an explicit busy
			// handshake instead of a bare close, so the client can tell
			// "server overloaded, back off and retry" apart from a fate
			// it must treat as uncertain. No request frame is ever read,
			// so nothing can have been applied.
			s.wg.Add(1)
			s.mu.Unlock()
			s.shedConns.Add(1)
			go s.refuseConn(conn)
			continue
		}
		s.conns[conn] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		go s.serveConn(conn)
	}
}

// refuseConn performs the busy-close handshake on a connection refused at
// admission: one StatusBusy response with request ID 0 (no request was
// read, so there is no ID to echo; docs/PROTOCOL.md §2.5), then close. The
// write runs under the usual write deadline so a non-reading client cannot
// pin the goroutine past it.
//
// The close is a half-close plus a bounded drain, not an immediate Close:
// a client may already have pipelined a request onto the connection, and
// closing with those bytes unread makes the kernel answer with a reset
// that destroys the in-flight busy frame — the client would then see a
// dead connection (an uncertain fate for updates) instead of the provably
// safe refusal this handshake exists to deliver.
func (s *Server) refuseConn(conn net.Conn) {
	defer s.wg.Done()
	defer conn.Close()
	_ = conn.SetWriteDeadline(time.Now().Add(writeTimeout))
	resp := &wire.Response{
		Op:     wire.OpAdmin | wire.RespBit,
		ID:     0,
		Status: wire.StatusBusy,
		Msg:    "server: connection limit reached",
	}
	bw := bufio.NewWriter(conn)
	if wire.WriteFrame(bw, resp.Encode()) != nil {
		return
	}
	if bw.Flush() != nil {
		return
	}
	if tc, ok := conn.(*net.TCPConn); ok {
		_ = tc.CloseWrite()
	}
	_ = conn.SetReadDeadline(time.Now().Add(time.Second))
	_, _ = io.Copy(io.Discard, conn)
}

// connWriter serializes response frames onto one connection. Responses
// are written in completion order; the request ID correlates them. Every
// write runs under a deadline so a non-reading client cannot pin the
// connection's responders once its receive window fills.
type connWriter struct {
	mu sync.Mutex
	nc net.Conn
	bw *bufio.Writer
}

func (w *connWriter) send(resp *wire.Response) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if err := w.nc.SetWriteDeadline(time.Now().Add(writeTimeout)); err != nil {
		return err
	}
	if err := wire.WriteFrame(w.bw, resp.Encode()); err != nil {
		return err
	}
	return w.bw.Flush()
}

// serveConn reads request frames and dispatches each on its own goroutine
// (bounded by MaxInFlight), which is what lets one connection pipeline.
// An undecodable frame is a connection-level protocol error: with no
// trustworthy request ID to correlate an answer, the server closes the
// connection, like the replica transport does for corrupt framing.
func (s *Server) serveConn(conn net.Conn) {
	defer s.wg.Done()
	var reqs sync.WaitGroup
	defer func() {
		reqs.Wait()
		_ = conn.Close()
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
	}()

	br := bufio.NewReader(conn)
	cw := &connWriter{nc: conn, bw: bufio.NewWriter(conn)}
	sem := make(chan struct{}, s.opts.MaxInFlight)
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
		// its own MaxInFlight waits here, which only stalls that client's
		// read loop.
		select {
		case sem <- struct{}{}:
		case <-s.quit:
			return
		}
		// Server-wide cap second, and never by waiting: queuing one
		// client's requests behind every other client's would turn
		// overload into unbounded latency for all. Shed with StatusBusy —
		// answered synchronously from the read loop, whose pace the
		// response write naturally bounds.
		if s.inflight.Add(1) > int64(s.opts.MaxTotalInFlight) {
			s.inflight.Add(-1)
			<-sem
			s.shedRequests.Add(1)
			s.served.Add(1)
			busy := &wire.Response{
				Op:     req.Op | wire.RespBit,
				ID:     req.ID,
				Status: wire.StatusBusy,
				Msg:    "server: in-flight request limit reached",
			}
			if cw.send(busy) != nil {
				return
			}
			continue
		}
		reqs.Add(1)
		go func() {
			defer func() { s.inflight.Add(-1); <-sem; reqs.Done() }()
			resp := s.handle(req)
			s.served.Add(1)
			if cw.send(resp) != nil {
				// The client can no longer receive responses; closing the
				// connection unblocks the frame-read loop so the server
				// stops executing requests whose answers are undeliverable.
				_ = conn.Close()
			}
		}()
	}
}

// handle executes one request against the node and renders the response.
func (s *Server) handle(req *wire.Request) *wire.Response {
	resp := &wire.Response{Op: req.Op | wire.RespBit, ID: req.ID}
	ctx, cancel := context.WithTimeout(s.ctx, s.opts.RequestTimeout)
	defer cancel()

	switch req.Op {
	case wire.OpUpdate:
		fu, observeRTTs, err := s.updateFor(ctx, req)
		if err != nil {
			return fail(resp, err, true) // nothing submitted yet
		}
		stats, err := s.node.UpdateKey(ctx, req.Key, fu)
		if err != nil {
			return fail(resp, err, false)
		}
		resp.Status = wire.StatusOK
		resp.RoundTrips = uint64(observeRTTs + stats.RoundTrips)

	case wire.OpQuery:
		st, stats, err := s.node.QueryKey(ctx, req.Key)
		if err != nil {
			return fail(resp, err, true)
		}
		enc, err := crdt.Marshal(st)
		if err != nil {
			return fail(resp, err, true)
		}
		if len(enc)+64 > wire.MaxFrame {
			// Answer terminally instead of letting the oversized response
			// frame silently drop the connection: the key stays diagnosable
			// even when its state outgrows the frame limit.
			return fail(resp, fmt.Errorf("server: state of %q (%d bytes) exceeds the %d-byte frame limit", req.Key, len(enc), wire.MaxFrame), true)
		}
		resp.Status = wire.StatusOK
		resp.RoundTrips = uint64(stats.RoundTrips)
		resp.Attempts = uint64(stats.Attempts)
		resp.Path = byte(stats.Path)
		resp.State = enc

	case wire.OpAdmin:
		return s.handleAdmin(ctx, req, resp)
	}
	return resp
}

// handleAdmin executes one admin command. The command string is a
// space-separated word list: the verb, then its operands ("member-add n4
// 10.0.0.4:7704 10.0.0.4:8704"). Membership commands run the
// reconfiguration protocol on the local node and answer with the
// resulting member list, so the caller learns the new epoch in the same
// round trip.
func (s *Server) handleAdmin(ctx context.Context, req *wire.Request, resp *wire.Response) *wire.Response {
	words := strings.Fields(req.Cmd)
	if len(words) == 0 {
		return fail(resp, badRequestf("server: empty admin command"), true)
	}
	switch verb := words[0]; verb {
	case "ping":
		resp.Status = wire.StatusOK
		resp.Payload = []byte("pong")
	case "keys":
		keys := s.node.Keys()
		w := wire.NewWriter(16 * (len(keys) + 1))
		w.Uvarint(uint64(len(keys)))
		for _, k := range keys {
			w.Str(k)
		}
		resp.Status = wire.StatusOK
		resp.Payload = w.Bytes()
	case "members":
		resp.Status = wire.StatusOK
		resp.Payload = s.membersPayload()
	case "member-add":
		if len(words) < 2 || len(words) > 4 {
			return fail(resp, badRequestf("server: usage: member-add <id> [mesh-addr] [client-addr]"), false)
		}
		id := transport.NodeID(words[1])
		members := s.node.Members()
		for _, m := range members {
			if m == id {
				return fail(resp, badRequestf("server: %s is already a member", id), false)
			}
		}
		// "-" is the positional placeholder for "no mesh address" (so a
		// client address can be given without one).
		if len(words) >= 3 && words[2] != "-" && s.opts.RegisterPeer != nil {
			if err := s.opts.RegisterPeer(words[1], words[2]); err != nil {
				return fail(resp, fmt.Errorf("server: register peer %s: %w", id, err), false)
			}
		}
		if err := s.node.Reconfigure(ctx, append(members, id)); err != nil {
			return fail(resp, err, false)
		}
		if len(words) == 4 {
			s.addrMu.Lock()
			s.memberAddrs[words[1]] = words[3]
			s.addrMu.Unlock()
		}
		resp.Status = wire.StatusOK
		resp.Payload = s.membersPayload()
	case "member-remove":
		if len(words) != 2 {
			return fail(resp, badRequestf("server: usage: member-remove <id>"), false)
		}
		id := transport.NodeID(words[1])
		members := s.node.Members()
		next := make([]transport.NodeID, 0, len(members))
		for _, m := range members {
			if m != id {
				next = append(next, m)
			}
		}
		if len(next) == len(members) {
			return fail(resp, badRequestf("server: %s is not a member", id), false)
		}
		if len(next) == 0 {
			return fail(resp, badRequestf("server: refusing to remove the last member"), false)
		}
		if err := s.node.Reconfigure(ctx, next); err != nil {
			return fail(resp, err, false)
		}
		s.addrMu.Lock()
		delete(s.memberAddrs, words[1])
		s.addrMu.Unlock()
		resp.Status = wire.StatusOK
		resp.Payload = s.membersPayload()
	default:
		return fail(resp, badRequestf("server: unknown admin command %q", verb), true)
	}
	return resp
}

// membersPayload encodes the node's current configuration: the epoch,
// then each member's ID and client-facing address (empty when the
// registry has none).
func (s *Server) membersPayload() []byte {
	members := s.node.Members()
	s.addrMu.Lock()
	defer s.addrMu.Unlock()
	w := wire.NewWriter(32 * (len(members) + 1))
	w.Uvarint(s.node.Epoch())
	w.Uvarint(uint64(len(members)))
	for _, m := range members {
		w.Str(string(m))
		w.Str(s.memberAddrs[string(m)])
	}
	return w.Bytes()
}

// fail classifies err into a response status. The classification is what
// the client's retry policy keys on, so it errs toward StatusUncertain:
// for updates, only errors that provably precede the protocol run map to
// StatusUnavailable.
//
// readOnly marks operations with no effects (queries, admin commands):
// for those, "was it applied?" is vacuous, so every fate-class failure —
// timeout, abort, shutdown mid-command — is reported as StatusUnavailable
// instead of StatusUncertain. That keeps blind failover safe by
// construction and lets a replica cut off from its quorum (crashed, shut
// down, or partitioned onto a minority side) answer reads with a status
// the client may retry anywhere (docs/PROTOCOL.md §2.5).
func fail(resp *wire.Response, err error, readOnly bool) *wire.Response {
	var bad errBadRequest
	switch {
	case errors.Is(err, cluster.ErrUnavailable):
		resp.Status = wire.StatusUnavailable
	case errors.Is(err, core.ErrNotMember):
		// A joiner not yet reconfigured in, or a replica reconfigured out,
		// refuses the command before running the protocol — provably not
		// applied, so the client may fail over to a current member.
		resp.Status = wire.StatusUnavailable
	case errors.Is(err, cluster.ErrStopped),
		errors.Is(err, core.ErrAborted),
		errors.Is(err, context.DeadlineExceeded),
		errors.Is(err, context.Canceled):
		// ErrStopped is uncertain, not unavailable, for updates: a node
		// closing mid-command can return it after the update was already
		// durable on a quorum, so a blind retry could apply it twice.
		if readOnly {
			resp.Status = wire.StatusUnavailable
		} else {
			resp.Status = wire.StatusUncertain
		}
	case errors.As(err, &bad):
		resp.Status = wire.StatusBadRequest
	default:
		resp.Status = wire.StatusError
	}
	resp.Msg = err.Error()
	return resp
}
