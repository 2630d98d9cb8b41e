package server

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"net"
	"strings"
	"testing"
	"time"

	"crdtsmr/internal/core"
	"crdtsmr/internal/crdt"
	"crdtsmr/internal/wire"
)

// servedStates is one state of every built-in type, plus the 1,000-element
// or-set of the large-set workload.
func servedStates() []crdt.State {
	set := crdt.NewORSet()
	for i := 0; i < 1000; i++ {
		set = set.Add(fmt.Sprintf("elem-%06d", i), "n1", uint64(i+1))
	}
	return []crdt.State{
		crdt.NewGCounter().Inc("n1", 5).Inc("n2", 300),
		crdt.NewPNCounter().Inc("n1", 7).Dec("n2", 2),
		crdt.NewLWWRegister().Set("value", 42, "n3"),
		crdt.NewORSet().Add("alice", "n1", 1).Add("bob", "n2", 1),
		set,
	}
}

// TestAppendResponseMatchesWriteFrame: the frame the server builds in
// place is byte for byte the length prefix followed by Encode with the
// state marshaled first, for every response shape, into a reused buffer.
// A query's digest follows a large state and is dropped for a small one;
// an "unchanged" answer carries the digest alone.
func TestAppendResponseMatchesWriteFrame(t *testing.T) {
	type answer struct {
		resp wire.Response
		st   crdt.State
	}
	answers := []answer{
		{wire.Response{Op: wire.OpUpdate | wire.RespBit, ID: 7, Status: wire.StatusOK, RoundTrips: 1}, nil},
		{wire.Response{Op: wire.OpAdmin | wire.RespBit, ID: 8, Status: wire.StatusOK, Payload: []byte("pong")}, nil},
	}
	for _, op := range []byte{wire.OpUpdate, wire.OpQuery, wire.OpAdmin} {
		answers = append(answers, answer{wire.Response{Op: op | wire.RespBit, ID: 9, Status: wire.StatusUnavailable, Msg: "cluster: node unavailable"}, nil})
	}
	digest := [wire.DigestSize]byte{0: 0xd1, wire.DigestSize - 1: 0x9e}
	for _, st := range servedStates() {
		answers = append(answers,
			answer{wire.Response{Op: wire.OpQuery | wire.RespBit, ID: 1 << 33, Status: wire.StatusOK, RoundTrips: 2, Attempts: 1, Path: 3}, st},
			answer{wire.Response{Op: wire.OpQuery | wire.RespBit, ID: 1 << 34, Status: wire.StatusOK, RoundTrips: 1, Attempts: 1, Path: 2, Digest: digest}, st},
			// A delta answer keeps both digests whatever the delta's size.
			answer{wire.Response{Op: wire.OpQuery | wire.RespBit, ID: 1 << 35, Status: wire.StatusOK, RoundTrips: 1, Attempts: 1, Path: 1, Digest: digest, Base: [wire.DigestSize]byte{0: 0xba}}, st})
	}
	answers = append(answers, answer{wire.Response{Op: wire.OpQuery | wire.RespBit, ID: 10, Status: wire.StatusOK, RoundTrips: 1, Attempts: 1, Path: 2, Digest: digest}, nil})
	buf := []byte("stale bytes of an earlier frame")
	for _, a := range answers {
		want := a.resp
		if a.st != nil {
			enc, err := crdt.Marshal(a.st)
			if err != nil {
				t.Fatal(err)
			}
			want.State = enc
			if len(enc) < wire.LargeState && !want.Delta() {
				want.Digest = [wire.DigestSize]byte{}
			}
		}
		body := want.Encode()
		ref := append(binary.AppendUvarint(nil, uint64(len(body))), body...)
		resp := a.resp
		got, held, err := appendResponse(buf[:0], &resp, a.st)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, ref) || resp.Digest != want.Digest {
			t.Fatalf("op %#x status %d (%d-byte frame): server frame differs from the length prefix and Encode()", resp.Op, resp.Status, len(ref))
		}
		buf = held
	}
}

// TestOversizedStateAnswersAndReturnsBuffer: a state too large for a
// frame is answered with a terminal error on the same connection, which
// keeps working, and every frame buffer goes back to the pool.
func TestOversizedStateAnswersAndReturnsBuffer(t *testing.T) {
	s := New(nil, Options{})
	srv, cli := net.Pipe()
	defer srv.Close()
	defer cli.Close()
	c := newConn(s, srv)
	answered := func(id uint64, st crdt.State) *request {
		return &request{
			req:  &wire.Request{Op: wire.OpQuery, ID: id},
			resp: wire.Response{Op: wire.OpQuery | wire.RespBit, ID: id},
			st:   st,
			qs:   core.QueryStats{RoundTrips: 1, Attempts: 1},
		}
	}

	huge := crdt.NewLWWRegister().Set(strings.Repeat("x", wire.MaxFrame), 1, "n1")
	sent := make(chan error, 1)
	go func() {
		if err := c.send(answered(1, huge)); err != nil {
			sent <- err
			return
		}
		sent <- c.send(answered(2, crdt.NewGCounter().Inc("n1", 1)))
	}()
	br := bufio.NewReader(cli)
	_ = cli.SetReadDeadline(time.Now().Add(10 * time.Second))
	read := func() *wire.Response {
		frame, err := wire.ReadFrame(br)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := wire.DecodeResponse(frame)
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	if r := read(); r.ID != 1 || r.Status != wire.StatusError || !strings.Contains(r.Msg, "frame limit") {
		t.Fatalf("oversized state answered %+v, want a StatusError naming the frame limit", r)
	}
	if r := read(); r.ID != 2 || r.Status != wire.StatusOK {
		t.Fatalf("next answer %+v, want the OK query", r)
	}
	if err := <-sent; err != nil {
		t.Fatal(err)
	}
	if out := s.frames.out.Load(); out != 0 {
		t.Fatalf("%d frame buffers not returned to the pool", out)
	}
}
