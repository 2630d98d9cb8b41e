package client_test

import (
	"context"
	"errors"
	"net"
	"testing"
	"time"

	"crdtsmr/client"
	"crdtsmr/internal/wire"
)

// The WithRequestTimeout fallback bounds a call whose context has no
// deadline; the connection's deadline list enforces it, not a derived
// context. These tests run it against scripted servers that never answer.

// TestFallbackTimeoutWhileAwaitingAnswer: a context.Background() call on a
// server that reads and never answers fails at the fallback deadline with
// ErrTimeout and context.DeadlineExceeded; an update's fate is also
// uncertain, a read's is not.
func TestFallbackTimeoutWhileAwaitingAnswer(t *testing.T) {
	const timeout = 150 * time.Millisecond
	s := startScripted(t, func(req *wire.Request) []byte { return nil })
	c, err := client.New([]string{s.addr()},
		client.WithRetryPolicy(client.RetryPolicy{MaxAttempts: 1}),
		client.WithRequestTimeout(timeout))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	start := time.Now()
	err = c.Counter("k").Inc(context.Background(), 1)
	if elapsed := time.Since(start); elapsed < timeout || elapsed > timeout+time.Second {
		t.Errorf("update took %v against a %v fallback", elapsed, timeout)
	}
	if !errors.Is(err, client.ErrTimeout) || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("update timeout %v does not match ErrTimeout and context.DeadlineExceeded", err)
	}
	if !errors.Is(err, client.ErrUncertain) {
		t.Fatalf("in-flight update timeout %v does not match ErrUncertain", err)
	}

	_, err = c.Counter("k").Value(context.Background())
	if !errors.Is(err, client.ErrTimeout) || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("read timeout %v does not match ErrTimeout and context.DeadlineExceeded", err)
	}
	if errors.Is(err, client.ErrUncertain) {
		t.Fatalf("read timeout %v claims ErrUncertain for an effect-free operation", err)
	}
}

// neverReads accepts connections and never reads them, so a frame larger
// than the socket buffers blocks its writer. The returned channel sends
// each accepted connection.
func neverReads(t *testing.T) (addr string, accepted <-chan net.Conn) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ch := make(chan net.Conn, 16)
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			ch <- conn
		}
	}()
	t.Cleanup(func() {
		_ = ln.Close()
		for {
			select {
			case conn := <-ch:
				_ = conn.Close()
			default:
				return
			}
		}
	})
	return ln.Addr().String(), ch
}

// bigValue is one frame larger than the socket buffers.
var bigValue = string(make([]byte, 3<<20))

// TestFallbackTimeoutCutsBlockedWrite: the fallback deadline cuts short a
// write blocked on a server that never reads, for the writer and for a
// caller queued behind it.
func TestFallbackTimeoutCutsBlockedWrite(t *testing.T) {
	const timeout = 200 * time.Millisecond
	addr, _ := neverReads(t)
	c, err := client.New([]string{addr}, client.WithPool(1),
		client.WithRetryPolicy(client.RetryPolicy{MaxAttempts: 1}),
		client.WithRequestTimeout(timeout))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	const callers = 2
	errs := make(chan error, callers)
	for range callers {
		go func() { errs <- c.Register("k").Store(context.Background(), bigValue) }()
	}
	guard := time.After(20 * time.Second)
	for range callers {
		select {
		case err := <-errs:
			if !errors.Is(err, client.ErrTimeout) || !errors.Is(err, context.DeadlineExceeded) {
				t.Errorf("blocked write: %v, want ErrTimeout and context.DeadlineExceeded", err)
			}
		case <-guard:
			t.Fatal("a write to a server that never reads outlived the fallback deadline")
		}
	}
}

// TestCancelInterruptsWriteAndWait: with no fallback deadline, cancelling
// the caller's context still ends a write blocked on a server that never
// reads, and a wait for an answer that never comes.
func TestCancelInterruptsWriteAndWait(t *testing.T) {
	noFallback := client.WithRequestTimeout(-1)
	one := client.WithRetryPolicy(client.RetryPolicy{MaxAttempts: 1})

	addr, accepted := neverReads(t)
	c, err := client.New([]string{addr}, client.WithPool(1), one, noFallback)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- c.Register("k").Store(ctx, bigValue) }()
	select {
	case <-accepted:
	case <-time.After(5 * time.Second):
		t.Fatal("the client never connected")
	}
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled write: %v, want context.Canceled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("cancellation did not interrupt a blocked write")
	}

	got := make(chan struct{}, 1)
	s := startScripted(t, func(req *wire.Request) []byte {
		got <- struct{}{}
		return nil
	})
	c2, err := client.New([]string{s.addr()}, one, noFallback)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	ctx2, cancel2 := context.WithCancel(context.Background())
	go func() { done <- c2.Counter("k").Inc(ctx2, 1) }()
	select {
	case <-got:
	case <-time.After(5 * time.Second):
		t.Fatal("the request never reached the server")
	}
	cancel2()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) || !errors.Is(err, client.ErrUncertain) {
			t.Fatalf("cancelled wait: %v, want context.Canceled and ErrUncertain", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("cancellation did not interrupt a wait for an answer")
	}
}

// TestBackoffStopsAtFallbackDeadline: a retry backoff longer than what is
// left of the fallback deadline ends at the deadline, not after the
// backoff.
func TestBackoffStopsAtFallbackDeadline(t *testing.T) {
	const timeout = 200 * time.Millisecond
	s := startScripted(t, func(req *wire.Request) []byte {
		return statusReply(req, wire.StatusUnavailable, "scripted: refusing")
	})
	c, err := client.New([]string{s.addr()},
		client.WithRetryPolicy(client.RetryPolicy{MaxAttempts: 3, Backoff: 10 * time.Second, MaxBackoff: 10 * time.Second}),
		client.WithRequestTimeout(timeout))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	start := time.Now()
	err = c.Counter("k").Inc(context.Background(), 1)
	if elapsed := time.Since(start); elapsed > timeout+time.Second {
		t.Fatalf("call took %v: the backoff slept past the %v deadline", elapsed, timeout)
	}
	if !errors.Is(err, client.ErrTimeout) || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want ErrTimeout and context.DeadlineExceeded", err)
	}
}
