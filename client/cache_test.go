package client_test

// The client's read cache against the scripted server: which state an
// "unchanged" or delta reply returns, when such a reply is an error, and
// what the cache holds.

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"crdtsmr/client"
	"crdtsmr/internal/crdt"
	"crdtsmr/internal/wire"
)

// largeSet returns the encoding of an or-set of n elements named by tag,
// with its digest; 100 elements are well over wire.LargeState.
func largeSet(t *testing.T, tag string, n int) ([]byte, [wire.DigestSize]byte) {
	t.Helper()
	s := crdt.NewORSet()
	for i := 0; i < n; i++ {
		s = s.Add(fmt.Sprintf("%s-%04d", tag, i), "n1", uint64(i+1))
	}
	raw, err := crdt.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	return raw, crdt.DigestOfMarshaled(raw)
}

// stateReply answers a query with state and digest; an empty state makes
// it the "unchanged" reply.
func stateReply(req *wire.Request, state []byte, digest [wire.DigestSize]byte) []byte {
	return (&wire.Response{Op: req.Op | wire.RespBit, ID: req.ID, Status: wire.StatusOK, RoundTrips: 1, Attempts: 1, Path: 1, State: state, Digest: digest}).Encode()
}

// deltaReply answers a query with delta, the learned state's delta against
// the state named base, and the learned state's digest.
func deltaReply(req *wire.Request, delta []byte, digest, base [wire.DigestSize]byte) []byte {
	return (&wire.Response{Op: req.Op | wire.RespBit, ID: req.ID, Status: wire.StatusOK, RoundTrips: 1, Attempts: 1, Path: 1, State: delta, Digest: digest, Base: base}).Encode()
}

// grown returns the or-set encoded in raw with elements added, its delta
// against raw's set and its digest.
func grown(t *testing.T, raw []byte, elems ...string) (full, delta []byte, digest [wire.DigestSize]byte) {
	t.Helper()
	st, err := crdt.Unmarshal(raw)
	if err != nil {
		t.Fatal(err)
	}
	s := st.(*crdt.ORSet)
	for i, e := range elems {
		s = s.Add(e, "n2", uint64(i+1))
	}
	d, err := s.Delta(st)
	if err != nil {
		t.Fatal(err)
	}
	full, err = crdt.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	if delta, err = crdt.Marshal(d); err != nil {
		t.Fatal(err)
	}
	return full, delta, crdt.DigestOfMarshaled(full)
}

func elements(t *testing.T, st client.State) []string {
	t.Helper()
	set, ok := st.(*crdt.ORSet)
	if !ok {
		t.Fatalf("state %T, want *crdt.ORSet", st)
	}
	return set.Elements()
}

// TestUnchangedCacheReturnsTheStateItsRequestNamed: a read sends the
// digest of the cached state X and its reply is held back; a second read
// meanwhile replaces X with a newer state. The held "unchanged" reply
// names X's digest, so the first read returns X's state, not the newer
// one the cache holds by then.
func TestUnchangedCacheReturnsTheStateItsRequestNamed(t *testing.T) {
	x, dx := largeSet(t, "x", 100)
	y, dy := largeSet(t, "y", 100)
	release := make(chan struct{})
	var withX atomic.Int32
	s := startScripted(t, func(req *wire.Request) []byte {
		if req.Have != dx {
			return stateReply(req, x, dx) // the first read
		}
		if withX.Add(1) == 1 {
			<-release // the pipelined read: held until the cache moved on
			return stateReply(req, nil, dx)
		}
		return stateReply(req, y, dy)
	})
	c, err := client.New([]string{s.addr()}, client.WithPool(2), client.WithRequestTimeout(5*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()
	first, _, err := c.Query(ctx, "or-set/k")
	if err != nil {
		t.Fatal(err)
	}

	type result struct {
		st   client.State
		info client.QueryInfo
		err  error
	}
	held := make(chan result, 1)
	go func() {
		st, info, err := c.Query(ctx, "or-set/k")
		held <- result{st, info, err}
	}()
	for withX.Load() == 0 {
		time.Sleep(time.Millisecond)
	}
	newer, _, err := c.Query(ctx, "or-set/k")
	if err != nil {
		t.Fatal(err)
	}
	if got := elements(t, newer); got[0] != "y-0000" {
		t.Fatalf("second read returned %v..., want the y state", got[:1])
	}
	close(release)
	r := <-held
	if r.err != nil {
		t.Fatal(r.err)
	}
	if !r.info.Unchanged || r.st != first {
		t.Fatalf("held read: unchanged %v, same state as the first read %v; want the state its request named", r.info.Unchanged, r.st == first)
	}
}

// TestUnchangedWithoutItsDigestIsAnError: an "unchanged" reply to a
// request that carried no digest, or another digest, names no state the
// client holds. It is an error, never a nil or stale state.
func TestUnchangedWithoutItsDigestIsAnError(t *testing.T) {
	x, dx := largeSet(t, "x", 100)
	var other [wire.DigestSize]byte
	other[0] = 1
	s := startScripted(t, func(req *wire.Request) []byte {
		switch {
		case req.Key == "or-set/fresh":
			return stateReply(req, nil, dx)
		case req.Have == dx:
			return stateReply(req, nil, other)
		default:
			return stateReply(req, x, dx)
		}
	})
	c, err := client.New([]string{s.addr()}, client.WithRequestTimeout(5*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()
	if st, _, err := c.Query(ctx, "or-set/fresh"); err == nil || st != nil {
		t.Fatalf("unchanged reply to a digestless request: state %v, err %v; want an error", st, err)
	}
	if _, _, err := c.Query(ctx, "or-set/held"); err != nil {
		t.Fatal(err)
	}
	if st, _, err := c.Query(ctx, "or-set/held"); err == nil || st != nil {
		t.Fatalf("unchanged reply naming another digest: state %v, err %v; want an error", st, err)
	}
}

// TestReadCacheBounds: the cache never holds more than its cap, and
// never a state under wire.LargeState bytes, even one sent with a digest.
func TestReadCacheBounds(t *testing.T) {
	x, dx := largeSet(t, "x", 100)
	small, dsmall := largeSet(t, "s", 3)
	if len(small) >= wire.LargeState {
		t.Fatalf("small state is %d bytes", len(small))
	}
	var smallHave atomic.Int32
	s := startScripted(t, func(req *wire.Request) []byte {
		if req.Key == "or-set/small" {
			if req.Have != ([wire.DigestSize]byte{}) {
				smallHave.Add(1)
			}
			return stateReply(req, small, dsmall)
		}
		return stateReply(req, x, dx)
	})
	c, err := client.New([]string{s.addr()}, client.WithRequestTimeout(5*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()
	for i := 0; i < 3*client.ReadCacheSize; i++ {
		if _, _, err := c.Query(ctx, fmt.Sprintf("or-set/%d", i)); err != nil {
			t.Fatal(err)
		}
		if n := client.ReadCacheLen(c); n > client.ReadCacheSize {
			t.Fatalf("after %d keys the cache holds %d entries, cap %d", i+1, n, client.ReadCacheSize)
		}
	}
	if n := client.ReadCacheLen(c); n != client.ReadCacheSize {
		t.Fatalf("cache holds %d entries, want its cap %d", n, client.ReadCacheSize)
	}
	for i := 0; i < 2; i++ {
		if _, _, err := c.Query(ctx, "or-set/small"); err != nil {
			t.Fatal(err)
		}
	}
	if smallHave.Load() != 0 {
		t.Fatal("a state under wire.LargeState was cached: its digest went out with the next read")
	}
}

// TestClientsShareNoCacheEntries: what one client read is not another's
// to name. The second client's first read of a key the first one holds
// carries no digest.
func TestClientsShareNoCacheEntries(t *testing.T) {
	x, dx := largeSet(t, "x", 100)
	var mu sync.Mutex
	var haves []bool
	s := startScripted(t, func(req *wire.Request) []byte {
		mu.Lock()
		haves = append(haves, req.Have == dx)
		mu.Unlock()
		return stateReply(req, x, dx)
	})
	ctx := context.Background()
	var clients []*client.Client
	for range 2 {
		c, err := client.New([]string{s.addr()}, client.WithRequestTimeout(5*time.Second))
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		clients = append(clients, c)
	}
	for _, c := range []*client.Client{clients[0], clients[0], clients[1]} {
		if _, _, err := c.Query(ctx, "or-set/k"); err != nil {
			t.Fatal(err)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if want := []bool{false, true, false}; fmt.Sprint(haves) != fmt.Sprint(want) {
		t.Fatalf("requests carried the held digest %v, want %v", haves, want)
	}
	if n := client.ReadCacheLen(clients[1]); n != 1 {
		t.Fatalf("second client holds %d entries, want its own one", n)
	}
}

// TestDeltaMergesIntoTheStateItsRequestNamed: a read holding X takes a
// delta and its reply is held back; a second read meanwhile replaces X
// with Y in the cache. The held reply's delta is against X, so the first
// read returns X joined with it, the state the server learned, not Y
// joined with it; and the key's next read names that state's digest.
func TestDeltaMergesIntoTheStateItsRequestNamed(t *testing.T) {
	x, dx := largeSet(t, "x", 100)
	y, dy := largeSet(t, "y", 100)
	z, delta, dz := grown(t, x, "x-new")
	release := make(chan struct{})
	var withX atomic.Int32
	var lastHave atomic.Value
	s := startScripted(t, func(req *wire.Request) []byte {
		lastHave.Store(req.Have)
		switch {
		case req.Have == dx && req.AcceptDelta && withX.Add(1) == 1:
			<-release // the pipelined read: held until the cache moved on
			return deltaReply(req, delta, dz, dx)
		case req.Have == dx:
			return stateReply(req, y, dy)
		}
		return stateReply(req, x, dx) // the first read, and any without a held state
	})
	c, err := client.New([]string{s.addr()}, client.WithPool(2), client.WithRequestTimeout(5*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()
	if _, _, err := c.Query(ctx, "or-set/k"); err != nil {
		t.Fatal(err)
	}
	type result struct {
		st   client.State
		info client.QueryInfo
		err  error
	}
	held := make(chan result, 1)
	go func() {
		st, info, err := c.Query(ctx, "or-set/k")
		held <- result{st, info, err}
	}()
	for withX.Load() == 0 {
		time.Sleep(time.Millisecond)
	}
	if newer, _, err := c.Query(ctx, "or-set/k"); err != nil || elements(t, newer)[0] != "y-0000" {
		t.Fatalf("second read: %v, err %v; want the y state", newer, err)
	}
	close(release)
	r := <-held
	if r.err != nil {
		t.Fatal(r.err)
	}
	if !r.info.Delta || r.info.Unchanged {
		t.Fatalf("held read: info %+v, want a delta answer", r.info)
	}
	got, err := crdt.Marshal(r.st)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(z) {
		t.Fatalf("held read returned %d elements, not X joined with its delta", len(elements(t, r.st)))
	}
	if _, _, err := c.Query(ctx, "or-set/k"); err != nil {
		t.Fatal(err)
	}
	if have := lastHave.Load().([wire.DigestSize]byte); have != dz {
		t.Fatal("the read after a delta answer did not name the joined state's digest")
	}
}

// TestDeltaWithoutItsBaseIsAnError: a delta reply to a request that did
// not take one, or against a base that is not the request's have, cannot
// be joined into any state the client knows. It is an error, never a nil
// or stale state.
func TestDeltaWithoutItsBaseIsAnError(t *testing.T) {
	x, dx := largeSet(t, "x", 100)
	_, delta, dz := grown(t, x, "x-new")
	var other [wire.DigestSize]byte
	other[0] = 1
	s := startScripted(t, func(req *wire.Request) []byte {
		switch {
		case req.Key == "or-set/fresh":
			return deltaReply(req, delta, dz, dx)
		case req.Have == dx:
			return deltaReply(req, delta, dz, other)
		default:
			return stateReply(req, x, dx)
		}
	})
	c, err := client.New([]string{s.addr()}, client.WithRequestTimeout(5*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()
	if st, _, err := c.Query(ctx, "or-set/fresh"); err == nil || st != nil {
		t.Fatalf("delta reply to a request that did not opt in: state %v, err %v; want an error", st, err)
	}
	if _, _, err := c.Query(ctx, "or-set/held"); err != nil {
		t.Fatal(err)
	}
	if st, _, err := c.Query(ctx, "or-set/held"); err == nil || st != nil {
		t.Fatalf("delta reply against another base: state %v, err %v; want an error", st, err)
	}
}
