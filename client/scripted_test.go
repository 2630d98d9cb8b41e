package client_test

// Client-behaviour matrix against a scripted flaky server: the tests here
// pin down the client's contract when the *server* misbehaves — stuck in
// "unavailable", speaking garbage, or answering with every status code
// the protocol defines — without any real cluster behind it.

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"crdtsmr/client"
	"crdtsmr/internal/wire"
)

// scriptedServer accepts client-protocol connections and answers every
// decodable request via the reply function. reply returns the raw frame
// body to send back (it need not be a decodable response — that is the
// point), or nil to send nothing.
type scriptedServer struct {
	ln    net.Listener
	reply func(req *wire.Request) []byte

	conns  atomic.Int32 // connections accepted so far
	closed atomic.Int32 // connections that reached EOF/error

	wg sync.WaitGroup
}

func startScripted(t *testing.T, reply func(req *wire.Request) []byte) *scriptedServer {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s := &scriptedServer{ln: ln, reply: reply}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			s.conns.Add(1)
			s.wg.Add(1)
			go func() {
				defer s.wg.Done()
				defer conn.Close()
				defer s.closed.Add(1)
				br := bufio.NewReader(conn)
				for {
					frame, err := wire.ReadFrame(br)
					if err != nil {
						return
					}
					req, err := wire.DecodeRequest(frame)
					if err != nil {
						return
					}
					body := s.reply(req)
					if body == nil {
						continue
					}
					out := append(binary.AppendUvarint(nil, uint64(len(body))), body...)
					if _, err := conn.Write(out); err != nil {
						return
					}
				}
			}()
		}
	}()
	t.Cleanup(func() {
		_ = ln.Close()
		s.wg.Wait()
	})
	return s
}

func (s *scriptedServer) addr() string { return s.ln.Addr().String() }

// statusReply builds a well-formed non-OK response echoing the request.
func statusReply(req *wire.Request, status byte, msg string) []byte {
	return (&wire.Response{Op: req.Op | wire.RespBit, ID: req.ID, Status: status, Msg: msg}).Encode()
}

// TestRetryHonoursCancellation: a server stuck answering "unavailable"
// entitles the client to retry indefinitely within its budget — but the
// caller's context cancellation must cut the retry loop short, promptly,
// with an error matching context.Canceled.
func TestRetryHonoursCancellation(t *testing.T) {
	var served atomic.Int32
	s := startScripted(t, func(req *wire.Request) []byte {
		served.Add(1)
		return statusReply(req, wire.StatusUnavailable, "scripted: permanently refusing")
	})

	c, err := client.New([]string{s.addr()},
		client.WithRetryPolicy(client.RetryPolicy{MaxAttempts: 1 << 20, Backoff: 10 * time.Millisecond}),
		client.WithRequestTimeout(-1)) // no fallback deadline: cancellation must do the work
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- c.Counter("k").Inc(ctx, 1) }()

	// Let a few retries happen, then cancel mid-loop.
	deadline := time.Now().Add(5 * time.Second)
	for served.Load() < 3 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if served.Load() < 3 {
		t.Fatal("server saw no retries")
	}
	cancel()

	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled retry loop returned %v, want context.Canceled", err)
		}
		if errors.Is(err, client.ErrTimeout) {
			t.Fatalf("cancellation misreported as timeout: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("retry loop ignored cancellation")
	}
	// The retry loop must stop consuming the server after cancellation.
	settled := served.Load()
	time.Sleep(50 * time.Millisecond)
	if served.Load() > settled+1 {
		t.Fatalf("server still being retried after cancellation (%d → %d)", settled, served.Load())
	}
}

// TestNoReuseAfterDecodeError: a response the client cannot decode kills
// the connection — nothing correlated over it can be trusted — so the
// next attempt must arrive on a freshly dialed connection, and the read-
// only operation must still succeed end-to-end via its retry.
func TestNoReuseAfterDecodeError(t *testing.T) {
	var requests atomic.Int32
	s := startScripted(t, func(req *wire.Request) []byte {
		if requests.Add(1) == 1 {
			return []byte{0xff, 0xfe, 0xfd} // undecodable response body
		}
		return (&wire.Response{Op: req.Op | wire.RespBit, ID: req.ID, Status: wire.StatusOK, Payload: []byte("pong")}).Encode()
	})

	c, err := client.New([]string{s.addr()},
		client.WithPool(1), // one slot: reuse would be visible immediately
		client.WithRetryPolicy(client.RetryPolicy{MaxAttempts: 3, Backoff: time.Millisecond}))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if err := c.Ping(context.Background()); err != nil {
		t.Fatalf("ping through a garbage first response: %v", err)
	}
	if got := s.conns.Load(); got != 2 {
		t.Fatalf("server saw %d connections, want 2 (poisoned conn must not be reused)", got)
	}
	// The poisoned connection must have been closed by the client, not
	// parked in the pool.
	deadline := time.Now().Add(5 * time.Second)
	for s.closed.Load() < 1 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if s.closed.Load() < 1 {
		t.Fatal("client kept the undecodable connection open")
	}
}

// TestConnFailureClassSplitsByOpKind: a connection that dies with
// requests in flight leaves an update's fate unknown (ErrUncertain) but
// a read simply unserved (ErrUnavailable) — the client-side mirror of
// the server's read-only failure classification.
func TestConnFailureClassSplitsByOpKind(t *testing.T) {
	// Every response is garbage, so every attempt ends in a dead
	// connection after the request was written.
	s := startScripted(t, func(req *wire.Request) []byte { return []byte{0xff, 0xfe} })
	c, err := client.New([]string{s.addr()},
		client.WithRetryPolicy(client.RetryPolicy{MaxAttempts: 2, Backoff: time.Millisecond}))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()

	err = c.Ping(ctx) // read-only: retried, exhausted, provably unserved
	if !errors.Is(err, client.ErrUnavailable) {
		t.Fatalf("read over dying connections: %v, want ErrUnavailable", err)
	}
	if errors.Is(err, client.ErrUncertain) {
		t.Fatalf("read over dying connections %v claims ErrUncertain", err)
	}

	err = c.Counter("k").Inc(ctx, 1) // update: fate unknown, no retry
	if !errors.Is(err, client.ErrUncertain) {
		t.Fatalf("update over dying connection: %v, want ErrUncertain", err)
	}
	if errors.Is(err, client.ErrUnavailable) {
		t.Fatalf("update over dying connection %v claims ErrUnavailable", err)
	}
}

// TestUncertainStatusReadReclassified: a server answering a read-only
// operation "uncertain" (permitted for servers predating PROTOCOL.md's
// read-only rule) must not leak the update-only ErrUncertain class to
// the caller — an exhausted effect-free read is provably unserved.
func TestUncertainStatusReadReclassified(t *testing.T) {
	s := startScripted(t, func(req *wire.Request) []byte {
		return statusReply(req, wire.StatusUncertain, "legacy: fate unknown")
	})
	c, err := client.New([]string{s.addr()},
		client.WithRetryPolicy(client.RetryPolicy{MaxAttempts: 2, Backoff: time.Millisecond}))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	_, err = c.Keys(context.Background())
	if !errors.Is(err, client.ErrUnavailable) {
		t.Fatalf("read exhausted on uncertain responses: %v, want ErrUnavailable", err)
	}
	if errors.Is(err, client.ErrUncertain) {
		t.Fatalf("read exhausted on uncertain responses %v claims ErrUncertain", err)
	}
	// The server's response stays inspectable verbatim: the wire status
	// is still "uncertain", only the retry class is remapped.
	var se *client.StatusError
	if !errors.As(err, &se) || se.Status != client.StatusUncertain || se.Msg != "legacy: fate unknown" {
		t.Fatalf("reclassified read error %v lost its StatusError", err)
	}
}

// TestInFlightTimeoutIsUncertain: a deadline that fires with the request
// frame already written cannot prove the update unapplied — the error
// must match ErrUncertain on top of ErrTimeout, or a caller treating
// plain timeouts as not-applied would double-apply on re-submission.
// Reads carry no such obligation: they have no effects.
func TestInFlightTimeoutIsUncertain(t *testing.T) {
	// A server that consumes requests and never answers: every request
	// is accepted onto the wire, then black-holed.
	s := startScripted(t, func(req *wire.Request) []byte { return nil })
	c, err := client.New([]string{s.addr()},
		client.WithRetryPolicy(client.RetryPolicy{MaxAttempts: 1}))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 150*time.Millisecond)
	defer cancel()
	err = c.Counter("k").Inc(ctx, 1)
	if !errors.Is(err, client.ErrTimeout) || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("in-flight update timeout %v does not match ErrTimeout", err)
	}
	if !errors.Is(err, client.ErrUncertain) {
		t.Fatalf("in-flight update timeout %v does not match ErrUncertain", err)
	}

	rctx, rcancel := context.WithTimeout(context.Background(), 150*time.Millisecond)
	defer rcancel()
	_, err = c.Counter("k").Value(rctx)
	if !errors.Is(err, client.ErrTimeout) {
		t.Fatalf("read timeout %v does not match ErrTimeout", err)
	}
	if errors.Is(err, client.ErrUncertain) {
		t.Fatalf("read timeout %v claims ErrUncertain for an effect-free operation", err)
	}
}

// TestWriteHonoursDeadline: a server that accepts connections but never
// reads lets the socket buffers fill, after which a frame write blocks.
// The write runs under the request's context, so each of several callers
// sharing one connection, the writer and those queued behind it, returns
// ErrTimeout at its 200 ms deadline.
func TestWriteHonoursDeadline(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	accepted := make(chan net.Conn, 16)
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			accepted <- conn
		}
	}()
	// release closes the server side, unblocking any write stuck on it.
	release := sync.OnceFunc(func() {
		_ = ln.Close()
		for {
			select {
			case conn := <-accepted:
				_ = conn.Close()
			default:
				return
			}
		}
	})
	defer release()
	c, err := client.New([]string{ln.Addr().String()}, client.WithPool(1),
		client.WithRetryPolicy(client.RetryPolicy{MaxAttempts: 1}))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const callers, timeout = 3, 200 * time.Millisecond
	big := string(make([]byte, 3<<20)) // one frame larger than the socket buffers
	type result struct {
		err     error
		elapsed time.Duration
	}
	results := make(chan result, callers)
	for range callers {
		go func() {
			ctx, cancel := context.WithTimeout(context.Background(), timeout)
			defer cancel()
			start := time.Now()
			err := c.Register("k").Store(ctx, big)
			results <- result{err, time.Since(start)}
		}()
	}
	guard := time.After(20 * time.Second)
	for range callers {
		select {
		case r := <-results:
			if !errors.Is(r.err, client.ErrTimeout) {
				t.Errorf("write to a server that never reads: %v, want ErrTimeout", r.err)
			}
			if r.elapsed > timeout+time.Second {
				t.Errorf("call took %v against a %v context", r.elapsed, timeout)
			}
		case <-guard:
			release()
			t.Fatal("a write to a server that never reads outlived its context")
		}
	}
}

// TestStatusErrorRoundTripsEveryCode: every non-OK status code of
// docs/PROTOCOL.md §2.5 — and an unknown future code, which rule §2.7/3
// says clients must treat as terminal — must surface as a *StatusError
// carrying the exact code and message, mapped onto the right retry-class
// sentinel.
func TestStatusErrorRoundTripsEveryCode(t *testing.T) {
	var status atomic.Int32
	s := startScripted(t, func(req *wire.Request) []byte {
		return statusReply(req, byte(status.Load()), "scripted message")
	})
	c, err := client.New([]string{s.addr()},
		client.WithRetryPolicy(client.RetryPolicy{MaxAttempts: 1})) // surface the first answer
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()

	cases := []struct {
		code        client.Status
		name        string
		unavailable bool
		uncertain   bool
		busy        bool
	}{
		{client.StatusUnavailable, "unavailable", true, false, false},
		{client.StatusUncertain, "uncertain", false, true, false},
		{client.StatusBadRequest, "bad request", false, false, false},
		{client.StatusFailed, "error", false, false, false},
		{client.StatusBusy, "busy", false, false, true},
		{client.Status(9), "status 9", false, false, false}, // unknown: terminal
	}
	for _, tc := range cases {
		status.Store(int32(tc.code))
		err := c.Counter("k").Inc(ctx, 1)
		if err == nil {
			t.Fatalf("status %d: update succeeded", tc.code)
		}
		var se *client.StatusError
		if !errors.As(err, &se) {
			t.Fatalf("status %d: error %v carries no StatusError", tc.code, err)
		}
		if se.Status != tc.code || se.Msg != "scripted message" {
			t.Fatalf("status %d round-tripped as {%d %q}", tc.code, se.Status, se.Msg)
		}
		if se.Status.String() != tc.name {
			t.Errorf("Status(%d).String() = %q, want %q", tc.code, se.Status, tc.name)
		}
		if got := errors.Is(err, client.ErrUnavailable); got != tc.unavailable {
			t.Errorf("status %d: Is(ErrUnavailable) = %v, want %v", tc.code, got, tc.unavailable)
		}
		if got := errors.Is(err, client.ErrUncertain); got != tc.uncertain {
			t.Errorf("status %d: Is(ErrUncertain) = %v, want %v", tc.code, got, tc.uncertain)
		}
		if got := errors.Is(err, client.ErrBusy); got != tc.busy {
			t.Errorf("status %d: Is(ErrBusy) = %v, want %v", tc.code, got, tc.busy)
		}
	}
}

// TestBusyStatusRetriesThenSucceeds: StatusBusy is a retry-anywhere
// class for every operation kind — the server sheds at admission, before
// executing anything, so even an update may be blindly resubmitted. A
// server that sheds a few times and then admits must cost the caller
// nothing but latency.
func TestBusyStatusRetriesThenSucceeds(t *testing.T) {
	var served atomic.Int32
	s := startScripted(t, func(req *wire.Request) []byte {
		if served.Add(1) <= 3 {
			return statusReply(req, wire.StatusBusy, "scripted: shedding")
		}
		return (&wire.Response{Op: req.Op | wire.RespBit, ID: req.ID, Status: wire.StatusOK, RoundTrips: 1}).Encode()
	})
	c, err := client.New([]string{s.addr()},
		client.WithRetryPolicy(client.RetryPolicy{MaxAttempts: 8, Backoff: time.Millisecond, MaxBackoff: 4 * time.Millisecond}))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Counter("k").Inc(context.Background(), 1); err != nil {
		t.Fatalf("update through a temporarily busy server: %v", err)
	}
	if got := served.Load(); got != 4 {
		t.Fatalf("server saw %d requests, want 4 (3 sheds + 1 success)", got)
	}
}

// TestBusyExhaustedSurfacesErrBusy: a server shedding every attempt must
// surface as ErrBusy — and only ErrBusy: not uncertain (nothing
// executed) and not unavailable (the caller's remedies differ: back off
// versus fail over).
func TestBusyExhaustedSurfacesErrBusy(t *testing.T) {
	s := startScripted(t, func(req *wire.Request) []byte {
		return statusReply(req, wire.StatusBusy, "scripted: permanently shedding")
	})
	c, err := client.New([]string{s.addr()},
		client.WithRetryPolicy(client.RetryPolicy{MaxAttempts: 3, Backoff: time.Millisecond, MaxBackoff: 2 * time.Millisecond}))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	err = c.Counter("k").Inc(context.Background(), 1)
	if !errors.Is(err, client.ErrBusy) {
		t.Fatalf("err = %v, want ErrBusy", err)
	}
	if errors.Is(err, client.ErrUncertain) || errors.Is(err, client.ErrUnavailable) {
		t.Fatalf("busy error %v bleeds into another retry class", err)
	}
	var se *client.StatusError
	if !errors.As(err, &se) || se.Status != client.StatusBusy || se.Msg != "scripted: permanently shedding" {
		t.Fatalf("busy error %v lost its StatusError", err)
	}
}

// TestSuspectHomeCostsItsDelayOnce: a key's home answers every request
// "unavailable" only after a delay, as a replica partitioned from its
// quorum does once its server timeout runs out. The first operation pays
// that delay and fails over; the next ones skip the suspect home and go
// straight to the next address, so the delay is paid once, not once per
// operation.
func TestSuspectHomeCostsItsDelayOnce(t *testing.T) {
	const delay = 200 * time.Millisecond
	var slowServed, fastServed atomic.Int32
	slow := startScripted(t, func(req *wire.Request) []byte {
		slowServed.Add(1)
		time.Sleep(delay)
		return statusReply(req, wire.StatusUnavailable, "scripted: timed out without a quorum")
	})
	fast := startScripted(t, func(req *wire.Request) []byte {
		fastServed.Add(1)
		return (&wire.Response{Op: req.Op | wire.RespBit, ID: req.ID, Status: wire.StatusOK, RoundTrips: 1}).Encode()
	})
	c, err := client.New([]string{slow.addr(), fast.addr()}, client.WithRequestTimeout(5*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	key := ""
	for i := 0; key == ""; i++ {
		if k := fmt.Sprintf("g-counter/%d", i); client.KeyHome(c, k) == slow.addr() {
			key = k
		}
	}
	const ops = 10
	start := time.Now()
	for i := 0; i < ops; i++ {
		if err := c.Counter(key).Inc(context.Background(), 1); err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
	}
	elapsed := time.Since(start)
	if n := slowServed.Load(); n != 1 {
		t.Fatalf("the slow home read %d requests, want 1: later ones should skip it", n)
	}
	if n := fastServed.Load(); n != ops {
		t.Fatalf("the next address served %d ops, want %d", n, ops)
	}
	if elapsed > ops/2*delay {
		t.Fatalf("%d ops took %v with a %v home: the delay was paid per op", ops, elapsed, delay)
	}
}
