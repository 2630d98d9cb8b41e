package client

import (
	"context"
	"math/rand"
	"net"
	"time"
)

// RetryPolicy bounds the client's automatic failover. The client retries
// an operation only when doing so is safe: always after ErrUnavailable,
// ErrBusy, and dial failures (nothing was applied), and additionally
// after ErrUncertain and mid-flight connection failures for read-only
// operations (queries and admin commands).
//
// The delay before retry n doubles from Backoff up to MaxBackoff, with
// equal jitter (half the delay fixed, half uniformly random) so that a
// fleet of clients shed together by an overloaded server does not retry
// together as a synchronized storm.
type RetryPolicy struct {
	// MaxAttempts caps tries per operation, first attempt included,
	// across addresses. 0 means len(addrs) + 1. A request whose connection
	// another caller's failed write took down before it was sent redials
	// without spending an attempt.
	MaxAttempts int
	// Backoff is the base delay before the first retry. 0 means 5 ms.
	Backoff time.Duration
	// MaxBackoff caps the exponential growth. 0 means 100 ms; when
	// Backoff alone is set higher than the cap, the cap follows it (the
	// delay then stays fixed at Backoff, jittered).
	MaxBackoff time.Duration
}

// delay returns the sleep before retry attempt n (n ≥ 1): the base
// doubled n-1 times, capped, with equal jitter.
func (p RetryPolicy) delay(n int) time.Duration {
	limit := p.MaxBackoff
	if limit < p.Backoff {
		limit = p.Backoff
	}
	d := p.Backoff
	for i := 1; i < n && d < limit; i++ {
		d *= 2
	}
	if d > limit {
		d = limit
	}
	if d <= time.Nanosecond {
		return d
	}
	half := d / 2
	return half + time.Duration(rand.Int63n(int64(d-half)+1))
}

// Dialer opens client connections. *net.Dialer implements it; supply a
// custom one with WithDialer to route connections through proxies,
// in-process listeners, or test fixtures.
type Dialer interface {
	DialContext(ctx context.Context, network, address string) (net.Conn, error)
}

type config struct {
	dialTimeout    time.Duration
	requestTimeout time.Duration
	retry          RetryPolicy
	connsPerAddr   int
	dialer         Dialer
}

func defaultConfig(addrs []string) config {
	return config{
		dialTimeout:    2 * time.Second,
		requestTimeout: 10 * time.Second,
		retry: RetryPolicy{
			MaxAttempts: len(addrs) + 1,
			Backoff:     5 * time.Millisecond,
			MaxBackoff:  100 * time.Millisecond,
		},
		connsPerAddr: 2,
	}
}

// Option configures a Client.
type Option func(*config)

// WithPool sets the connection pool size per address. Requests pipeline,
// so a small pool serves many concurrent callers. Default 2.
func WithPool(connsPerAddr int) Option {
	return func(c *config) {
		if connsPerAddr > 0 {
			c.connsPerAddr = connsPerAddr
		}
	}
}

// WithRetryPolicy tunes failover. Zero fields keep their defaults
// (MaxAttempts len(addrs)+1, Backoff 5 ms, MaxBackoff 100 ms);
// MaxAttempts 1 disables retries entirely.
func WithRetryPolicy(p RetryPolicy) Option {
	return func(c *config) {
		if p.MaxAttempts > 0 {
			c.retry.MaxAttempts = p.MaxAttempts
		}
		if p.Backoff > 0 {
			c.retry.Backoff = p.Backoff
		}
		if p.MaxBackoff > 0 {
			c.retry.MaxBackoff = p.MaxBackoff
		}
	}
}

// WithDialer replaces the connection dialer (default: a net.Dialer
// bounded by the dial timeout). The dial timeout still applies: the
// context passed to d carries it as a deadline.
func WithDialer(d Dialer) Option {
	return func(c *config) {
		if d != nil {
			c.dialer = d
		}
	}
}

// WithDialTimeout bounds one connection attempt. Default 2 s.
func WithDialTimeout(d time.Duration) Option {
	return func(c *config) {
		if d > 0 {
			c.dialTimeout = d
		}
	}
}

// WithRequestTimeout sets the fallback per-operation deadline applied
// only when the caller's context has none. Default 10 s; pass a negative
// value to disable the fallback and let deadline-free contexts wait
// indefinitely.
func WithRequestTimeout(d time.Duration) Option {
	return func(c *config) {
		if d != 0 {
			c.requestTimeout = d
		}
	}
}
