package client

// White-box tests for key routing: every keyed request goes to its key's
// rendezvous home, retries walk down the key's ranking, and keyless admin
// requests rotate.

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"
)

// homes returns the home address of every key under the client's
// current address set.
func homes(t *testing.T, c *Client, keys []string) map[string]string {
	t.Helper()
	pools, err := c.snapshotPools()
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string]string, len(keys))
	for _, k := range keys {
		out[k] = pick(pools, k, 0, 0).addr
	}
	return out
}

func keyNames(n int) []string {
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("g-counter/k/%04d", i)
	}
	return keys
}

var threeAddrs = []string{"10.0.0.1:8701", "10.0.0.2:8701", "10.0.0.3:8701"}

// TestKeyHomeIsStable: a key's home is a function of the key and the
// address set alone — the same on every call, for every client, whatever
// order the addresses were given in.
func TestKeyHomeIsStable(t *testing.T) {
	c1, err := New(threeAddrs)
	if err != nil {
		t.Fatal(err)
	}
	defer c1.Close()
	c2, err := New([]string{threeAddrs[2], threeAddrs[0], threeAddrs[1]})
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	keys := keyNames(100)
	want := homes(t, c1, keys)
	for i := 0; i < 3; i++ {
		for _, c := range []*Client{c1, c2} {
			for k, h := range homes(t, c, keys) {
				if h != want[k] {
					t.Fatalf("key %q homed at %s, earlier at %s", k, h, want[k])
				}
			}
		}
	}
}

// TestKeyHomesSpreadEvenly: 3,000 keys over three addresses give each
// address 1,000 ± 10 %. Without the score's finalizer they do not.
func TestKeyHomesSpreadEvenly(t *testing.T) {
	c, err := New(threeAddrs)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	count := make(map[string]int)
	for _, h := range homes(t, c, keyNames(3000)) {
		count[h]++
	}
	for _, a := range threeAddrs {
		if n := count[a]; n < 900 || n > 1100 {
			t.Errorf("%s is home to %d of 3000 keys, want 1000 ± 100 (all: %v)", a, n, count)
		}
	}
}

// TestSetAddrsRehomesOnlyDroppedKeys: dropping one of three addresses
// moves exactly the keys that address was home to.
func TestSetAddrsRehomesOnlyDroppedKeys(t *testing.T) {
	c, err := New(threeAddrs)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	keys := keyNames(3000)
	before := homes(t, c, keys)
	dropped := threeAddrs[1]
	if err := c.SetAddrs([]string{threeAddrs[0], threeAddrs[2]}); err != nil {
		t.Fatal(err)
	}
	moved := 0
	for k, h := range homes(t, c, keys) {
		switch {
		case h == dropped:
			t.Fatalf("key %q still homed at removed %s", k, dropped)
		case before[k] == dropped:
			moved++
		case h != before[k]:
			t.Fatalf("key %q moved %s → %s though its home stayed", k, before[k], h)
		}
	}
	if moved == 0 {
		t.Fatal("no key was homed at the dropped address")
	}
}

// ranked starts three fake servers and returns a client over them and the
// servers in key's rendezvous order, home first.
func ranked(t *testing.T, key string, opts ...Option) (*Client, []*fakeServer) {
	t.Helper()
	byAddr := make(map[string]*fakeServer)
	var addrs []string
	for i := 0; i < 3; i++ {
		s := startFakeServer(t)
		byAddr[s.addr] = s
		addrs = append(addrs, s.addr)
	}
	c, err := New(addrs, opts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = c.Close() })
	pools, err := c.snapshotPools()
	if err != nil {
		t.Fatal(err)
	}
	order := make([]*fakeServer, len(pools))
	for i := range order {
		order[i] = byAddr[pick(pools, key, 0, i).addr]
	}
	return c, order
}

// servedBy asserts how many requests each server read.
func servedBy(t *testing.T, what string, order []*fakeServer, want ...int32) {
	t.Helper()
	for i, s := range order {
		if got := s.served.Load(); got != want[i] {
			t.Fatalf("%s: rank-%d server read %d requests, want %d", what, i, got, want[i])
		}
	}
}

// TestHomeFailover: with the home refusing dials, a query and an update
// are both served by the second-ranked address — nothing was sent, so any
// operation may move on. With the home reading a request and then hanging
// up, a query still fails over, while an update keeps its ErrUncertain
// class and is not re-sent. A client whose request failed at the home
// sends its next keyed request straight to the second-ranked address.
func TestHomeFailover(t *testing.T) {
	const key = "g-counter/views"
	opts := []Option{
		WithRequestTimeout(5 * time.Second),
		WithDialTimeout(time.Second),
		WithRetryPolicy(RetryPolicy{MaxAttempts: 3, Backoff: time.Millisecond, MaxBackoff: 2 * time.Millisecond}),
	}
	ctx := context.Background()

	t.Run("dial-refused", func(t *testing.T) {
		c, order := ranked(t, key, opts...)
		_ = order[0].ln.Close() // the home now refuses connections
		if _, _, err := c.Query(ctx, key); err != nil {
			t.Fatalf("query with the home down: %v", err)
		}
		servedBy(t, "query", order, 0, 1, 0)
		if err := c.Counter(key).Inc(ctx, 1); err != nil {
			t.Fatalf("update with the home down: %v", err)
		}
		servedBy(t, "update", order, 0, 2, 0)
	})

	t.Run("hang-up", func(t *testing.T) {
		c, order := ranked(t, key, opts...)
		order[0].hangUp.Store(true)
		if _, _, err := c.Query(ctx, key); err != nil {
			t.Fatalf("query with the home hanging up: %v", err)
		}
		servedBy(t, "query", order, 1, 1, 0)
		if err := c.Counter(key).Inc(ctx, 1); err != nil {
			t.Fatalf("update after the home hung up: %v", err)
		}
		servedBy(t, "update skipping the suspect home", order, 1, 2, 0)
		// A client that has seen no failure still sends the update home.
		fresh, err := New(c.Addrs(), opts...)
		if err != nil {
			t.Fatal(err)
		}
		defer fresh.Close()
		err = fresh.Counter(key).Inc(ctx, 1)
		if !errors.Is(err, ErrUncertain) || errors.Is(err, ErrUnavailable) {
			t.Fatalf("update the home read and dropped: %v, want ErrUncertain only", err)
		}
		servedBy(t, "update", order, 2, 2, 0)
	})
}

// TestPingRotates: keyless admin requests keep rotating over the
// addresses.
func TestPingRotates(t *testing.T) {
	c, order := ranked(t, "", WithRequestTimeout(5*time.Second))
	for i := 0; i < 6; i++ {
		if err := c.Ping(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	servedBy(t, "ping", order, 2, 2, 2)
}
